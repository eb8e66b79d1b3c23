/* Generated RTOS for network 'dash_gen' (§IV).
 * Policy: round-robin, non-preemptive; hw->sw delivery: interrupt. */
#include "polis_rt.h"

#define N_TASKS 3
#define N_NETS  5

extern void cfsm_deb0(void);
extern void cfsm_cnt0(void);
extern void cfsm_spd0(void);

static void (*const task_entry[N_TASKS])(void) = {
  cfsm_deb0, /* debounce */
  cfsm_cnt0, /* pulse_counter */
  cfsm_spd0, /* speedometer */
};

/* Per-task private event flags (1-place buffers, §IV-B), plus a
 * pending buffer that freezes the running task's snapshot: events
 * arriving (e.g. from an ISR) while a task reads its flags are
 * deferred to its next execution (§IV-D). */
static int  flag_present[N_TASKS][N_NETS];
static long flag_value[N_TASKS][N_NETS];
static int  pending_present[N_TASKS][N_NETS];
static long pending_value[N_TASKS][N_NETS];
static int  task_enabled[N_TASKS];
static int  current_task = -1;
static int  current_consumed = 0;

static const int sensitivity[N_NETS][N_TASKS + 1] = {
  { 1, -1 }, /* clean0 */
  { 2, -1 }, /* count0 */
  { -1 }, /* pwm0 */
  { 0, -1 }, /* raw0 */
  { 0, 1, -1 }, /* timer */
};

long polis_wrap(long value, long domain) {
  long m;
  if (domain <= 1) return 0;
  m = value % domain;
  return m < 0 ? m + domain : m;
}

int polis_detect(int sig) { return flag_present[current_task][sig]; }

long polis_value(int sig) { return flag_value[current_task][sig]; }

void polis_consume(void) { current_consumed = 1; }

void polis_emit_value(int sig, long value) {
  const int *t = sensitivity[sig];
  if (*t < 0) { polis_observe(sig, value); return; }  /* external output */
  for (; *t >= 0; ++t) {
    if (*t == current_task) {   /* snapshot frozen: defer (§IV-D) */
      pending_value[*t][sig] = value;
      pending_present[*t][sig] = 1;
    } else {
      flag_value[*t][sig] = value;  /* value before presence (§II-D) */
      flag_present[*t][sig] = 1;
      task_enabled[*t] = 1;
    }
  }
}

void polis_emit(int sig) { polis_emit_value(sig, 0); }

static void run_task(int t) {
  int s;
  current_task = t;
  current_consumed = 0;
  task_enabled[t] = 0;          /* enablement is edge-triggered (§IV-A) */
  task_entry[t]();
  if (current_consumed) {       /* §IV-D: consume only if a rule fired */
    for (s = 0; s < N_NETS; ++s) flag_present[t][s] = 0;
  }
  current_task = -1;
  for (s = 0; s < N_NETS; ++s) {  /* merge the deferred arrivals */
    if (!pending_present[t][s]) continue;
    flag_present[t][s] = 1;       /* overwrites a preserved event */
    flag_value[t][s] = pending_value[t][s];
    pending_present[t][s] = 0;
    task_enabled[t] = 1;
  }
}

void polis_scheduler_step(void) {
  static int cursor = 0;
  int k;
  for (k = 0; k < N_TASKS; ++k) {
    int t = (cursor + k) % N_TASKS;
    if (task_enabled[t]) {
      cursor = (t + 1) % N_TASKS;
      run_task(t);
      return;
    }
  }
}

/* Interrupt service routine for hw-CFSM events: by default an ISR contains
 * only the emission (§IV-C); critical events may run their consumers inside
 * the ISR via polis_scheduler_step(). */
void polis_isr(int sig) { polis_emit(sig); }
