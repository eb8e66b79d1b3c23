/* Synthesized reaction routine for instance 'd' of CFSM 'display'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long d__bars = 0;
static long d__overload = 0;

void cfsm_d(void) {
  long d__bars__in = d__bars;
  long d__overload__in = d__overload;
  if (!(polis_detect(SIG_level))) goto L0;
  polis_consume();
  if (!(polis_value(SIG_level) != d__bars__in)) goto L0;
  polis_emit_value(SIG_bar_pwm, polis_wrap(polis_value(SIG_level) * 2, 8));
  d__bars = polis_wrap(polis_value(SIG_level), 4);
L0:
  return;
}
