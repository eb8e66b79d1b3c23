/* Synthesized reaction routine for instance 'mag' of CFSM 'magnetron'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long mag__on = 0;

void cfsm_mag(void) {
  long mag__on__in = mag__on;
  if (!(polis_detect(SIG_heat_off))) goto L8;
  goto L4;
L8:
  if (!(polis_detect(SIG_heat_on))) goto L0;
  polis_consume();
  polis_emit_value(SIG_power, polis_wrap(1, 2));
  mag__on = polis_wrap(1, 2);
  goto L0;
L4:
  mag__on = polis_wrap(0, 2);
  polis_emit_value(SIG_power, polis_wrap(0, 2));
  polis_consume();
L0:
  return;
}
