/* Synthesized reaction routine for instance 'ctl' of CFSM 'controller'.
 * Ports are bound to nets; state lives in instance-prefixed globals. Do not edit. */
#include "polis_rt.h"

static long ctl__cooking = 0;
static long ctl__remaining = 0;
static long ctl__door = 1;

void cfsm_ctl(void) {
  long ctl__cooking__in = ctl__cooking;
  long ctl__remaining__in = ctl__remaining;
  long ctl__door__in = ctl__door;
  if (!(polis_detect(SIG_door_open))) goto L24;
  goto L7;
L24:
  if (!(polis_detect(SIG_door_closed))) goto L23;
  goto L8;
L23:
  if (!(polis_detect(SIG_set_time))) goto L22;
  goto L13;
L22:
  if (!(ctl__cooking__in == 1)) goto L0;
  if (!(polis_detect(SIG_tick))) goto L0;
  if (!(ctl__remaining__in > 1)) goto L19;
  goto L14;
L19:
  polis_consume();
  polis_emit(SIG_heat_off);
  ctl__cooking = polis_wrap(0, 2);
  polis_emit(SIG_done);
  ctl__remaining = polis_wrap(0, 16);
  goto L0;
L14:
  ctl__remaining = polis_wrap(ctl__remaining__in - 1, 16);
  goto L5;
L13:
  ctl__remaining = polis_wrap(polis_value(SIG_set_time), 16);
  if (!(ctl__door__in == 1)) goto L5;
  polis_consume();
  polis_emit(SIG_heat_on);
  ctl__cooking = polis_wrap(1, 2);
  goto L0;
L8:
  ctl__door = polis_wrap(1, 2);
  goto L5;
L7:
  ctl__door = polis_wrap(0, 2);
  if (!(ctl__cooking__in == 1)) goto L5;
  goto L4;
L5:
  polis_consume();
  goto L0;
L4:
  polis_consume();
  polis_emit(SIG_heat_off);
  ctl__cooking = polis_wrap(0, 2);
L0:
  return;
}
