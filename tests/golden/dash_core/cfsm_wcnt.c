/* Synthesized reaction routine for instance 'wcnt' of CFSM 'pulse_counter'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long wcnt__n = 0;

void cfsm_wcnt(void) {
  long wcnt__n__in = wcnt__n;
  if (!(polis_detect(SIG_timer))) goto L6;
  goto L4;
L6:
  if (!(polis_detect(SIG_wheel_clean))) goto L0;
  wcnt__n = polis_wrap(wcnt__n__in + 1, 8);
  goto L2;
L4:
  wcnt__n = polis_wrap(0, 8);
  polis_emit_value(SIG_wheel_count, polis_wrap(wcnt__n__in, 8));
L2:
  polis_consume();
L0:
  return;
}
