/* Synthesized reaction routine for instance 'cnt0' of CFSM 'pulse_counter'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long cnt0__n = 0;

void cfsm_cnt0(void) {
  long cnt0__n__in = cnt0__n;
  if (!(polis_detect(SIG_timer))) goto L6;
  goto L4;
L6:
  if (!(polis_detect(SIG_clean0))) goto L0;
  cnt0__n = polis_wrap(cnt0__n__in + 1, 8);
  goto L2;
L4:
  cnt0__n = polis_wrap(0, 8);
  polis_emit_value(SIG_count0, polis_wrap(cnt0__n__in, 8));
L2:
  polis_consume();
L0:
  return;
}
