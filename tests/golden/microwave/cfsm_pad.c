/* Synthesized reaction routine for instance 'pad' of CFSM 'keypad'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long pad__acc = 0;

void cfsm_pad(void) {
  long pad__acc__in = pad__acc;
  if (!(polis_detect(SIG_digit))) goto L12;
  goto L3;
L12:
  if (!(polis_detect(SIG_clear))) goto L11;
  goto L5;
L11:
  if (!(polis_detect(SIG_start_btn))) goto L0;
  if (!(pad__acc__in > 0)) goto L0;
  polis_consume();
  pad__acc = polis_wrap(0, 16);
  polis_emit_value(SIG_set_time, polis_wrap(pad__acc__in, 16));
  polis_emit(SIG_start);
  goto L0;
L5:
  polis_consume();
  pad__acc = polis_wrap(0, 16);
  goto L0;
L3:
  pad__acc = polis_wrap(pad__acc__in + polis_value(SIG_digit), 16);
  polis_consume();
L0:
  return;
}
