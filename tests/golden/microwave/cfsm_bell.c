/* Synthesized reaction routine for instance 'bell' of CFSM 'beeper'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"


void cfsm_bell(void) {
  if (!(polis_detect(SIG_done))) goto L0;
  polis_emit(SIG_beep);
  polis_consume();
L0:
  return;
}
