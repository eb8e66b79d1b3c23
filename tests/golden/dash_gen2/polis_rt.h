/* polis_rt.h — generated RTOS interface for network 'dash_gen'. */
#ifndef POLIS_RT_H
#define POLIS_RT_H

#define SIG_clean0 0
#define SIG_clean1 1
#define SIG_count0 2
#define SIG_count1 3
#define SIG_pwm0 4
#define SIG_pwm1 5
#define SIG_raw0 6
#define SIG_raw1 7
#define SIG_timer 8

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
