/* Synthesized reaction routine for instance 'q' of CFSM 'quantizer'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"


void cfsm_q(void) {
  if (!(polis_detect(SIG_sensor))) goto L0;
  polis_consume();
  if (!(polis_value(SIG_sensor) < 2)) goto L7;
  goto L2;
L7:
  if (!(polis_value(SIG_sensor) < 4)) goto L6;
  goto L3;
L6:
  if (!(polis_value(SIG_sensor) < 6)) goto L5;
  goto L4;
L5:
  polis_emit_value(SIG_level, polis_wrap(3, 8));
  goto L0;
L4:
  polis_emit_value(SIG_level, polis_wrap(2, 8));
  goto L0;
L3:
  polis_emit_value(SIG_level, polis_wrap(1, 8));
  goto L0;
L2:
  polis_emit_value(SIG_level, polis_wrap(0, 8));
L0:
  return;
}
