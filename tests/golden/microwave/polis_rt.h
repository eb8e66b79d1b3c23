/* polis_rt.h — generated RTOS interface for network 'microwave'. */
#ifndef POLIS_RT_H
#define POLIS_RT_H

#define SIG_beep 0
#define SIG_clear 1
#define SIG_digit 2
#define SIG_done 3
#define SIG_door_closed 4
#define SIG_door_open 5
#define SIG_heat_off 6
#define SIG_heat_on 7
#define SIG_power 8
#define SIG_set_time 9
#define SIG_start 10
#define SIG_start_btn 11
#define SIG_tick 12

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
