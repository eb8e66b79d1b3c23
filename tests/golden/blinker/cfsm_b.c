/* Synthesized reaction routine for instance 'b' of CFSM 'blink'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long b__on = 0;

void cfsm_b(void) {
  long b__on__in = b__on;
  if (!(polis_detect(SIG_tick))) goto L0;
  if (!(b__on__in == 0)) goto L7;
  goto L4;
L7:
  polis_consume();
  polis_emit_value(SIG_led, polis_wrap(0, 2));
  b__on = polis_wrap(0, 2);
  goto L0;
L4:
  polis_consume();
  polis_emit_value(SIG_led, polis_wrap(1, 2));
  b__on = polis_wrap(1, 2);
L0:
  return;
}
