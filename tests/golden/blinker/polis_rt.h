/* polis_rt.h — generated RTOS interface for network 'blinker'. */
#ifndef POLIS_RT_H
#define POLIS_RT_H

#define SIG_led 0
#define SIG_tick 1

long polis_wrap(long value, long domain);
int  polis_detect(int sig);
void polis_emit(int sig);
void polis_emit_value(int sig, long value);
void polis_consume(void);
long polis_value(int sig);
/* Provided by the environment: called for emissions on nets with
 * no software consumer (the system's external outputs). */
void polis_observe(int sig, long value);

#endif /* POLIS_RT_H */
