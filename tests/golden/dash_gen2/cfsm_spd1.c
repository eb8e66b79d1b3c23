/* Synthesized reaction routine for instance 'spd1' of CFSM 'speedometer'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long spd1__last = 0;

void cfsm_spd1(void) {
  long spd1__last__in = spd1__last;
  if (!(polis_detect(SIG_count1))) goto L0;
  if (!(polis_value(SIG_count1) != spd1__last__in)) goto L5;
  goto L4;
L5:
  polis_consume();
  goto L0;
L4:
  polis_consume();
  polis_emit_value(SIG_pwm1, polis_wrap(polis_value(SIG_count1) * 2, 16));
  spd1__last = polis_wrap(polis_value(SIG_count1), 8);
L0:
  return;
}
