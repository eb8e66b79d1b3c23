/* Synthesized reaction routine for instance 'deb1' of CFSM 'debounce'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long deb1__cnt = 0;

void cfsm_deb1(void) {
  long deb1__cnt__in = deb1__cnt;
  if (!(polis_detect(SIG_raw1))) goto L10;
  goto L7;
L10:
  if (!(polis_detect(SIG_timer))) goto L0;
  polis_consume();
  deb1__cnt = polis_wrap(0, 4);
  goto L0;
L7:
  if (!(deb1__cnt__in < 2)) goto L6;
  goto L3;
L6:
  polis_consume();
  polis_emit(SIG_clean1);
  deb1__cnt = polis_wrap(3, 4);
  goto L0;
L3:
  deb1__cnt = polis_wrap(deb1__cnt__in + 1, 4);
  polis_consume();
L0:
  return;
}
