/* Synthesized reaction routine for instance 'deb0' of CFSM 'debounce'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long deb0__cnt = 0;

void cfsm_deb0(void) {
  long deb0__cnt__in = deb0__cnt;
  if (!(polis_detect(SIG_raw0))) goto L10;
  goto L7;
L10:
  if (!(polis_detect(SIG_timer))) goto L0;
  polis_consume();
  deb0__cnt = polis_wrap(0, 4);
  goto L0;
L7:
  if (!(deb0__cnt__in < 2)) goto L6;
  goto L3;
L6:
  polis_consume();
  polis_emit(SIG_clean0);
  deb0__cnt = polis_wrap(3, 4);
  goto L0;
L3:
  deb0__cnt = polis_wrap(deb0__cnt__in + 1, 4);
  polis_consume();
L0:
  return;
}
