/* Synthesized reaction routine for instance 'spd0' of CFSM 'speedometer'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long spd0__last = 0;

void cfsm_spd0(void) {
  long spd0__last__in = spd0__last;
  if (!(polis_detect(SIG_count0))) goto L0;
  if (!(polis_value(SIG_count0) != spd0__last__in)) goto L5;
  goto L4;
L5:
  polis_consume();
  goto L0;
L4:
  polis_consume();
  polis_emit_value(SIG_pwm0, polis_wrap(polis_value(SIG_count0) * 2, 16));
  spd0__last = polis_wrap(polis_value(SIG_count0), 8);
L0:
  return;
}
