/* Synthesized reaction routine for instance 'spd' of CFSM 'speedometer'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long spd__last = 0;

void cfsm_spd(void) {
  long spd__last__in = spd__last;
  if (!(polis_detect(SIG_wheel_count))) goto L0;
  if (!(polis_value(SIG_wheel_count) != spd__last__in)) goto L5;
  goto L4;
L5:
  polis_consume();
  goto L0;
L4:
  polis_consume();
  polis_emit_value(SIG_speed_pwm, polis_wrap(polis_value(SIG_wheel_count) * 2, 16));
  spd__last = polis_wrap(polis_value(SIG_wheel_count), 8);
L0:
  return;
}
