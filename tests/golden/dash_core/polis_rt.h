/* polis_rt.h — generated RTOS interface for network 'dash_core'. */
#ifndef POLIS_RT_H
#define POLIS_RT_H

#define SIG_speed_pwm 0
#define SIG_timer 1
#define SIG_wheel_clean 2
#define SIG_wheel_count 3
#define SIG_wheel_raw 4

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
