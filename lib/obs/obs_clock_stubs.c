/* Monotonic clock shims for Obs.Clock.

   Unix.gettimeofday is wall-clock (it jumps under NTP slews) and the
   stdlib has no monotonic source, so these are the only C stubs in the
   tree: clock_gettime returning whole nanoseconds as an OCaml immediate
   int.  63 bits of nanoseconds overflow after ~146 years of uptime, so
   no boxing ([@@noalloc] on the OCaml side) and no Int64 allocation on
   the probe path. */

#include <caml/mlvalues.h>
#include <time.h>

static inline value ns_of_clock(clockid_t clock)
{
  struct timespec ts;
  clock_gettime(clock, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

CAMLprim value obs_clock_monotonic_ns(value unit)
{
  (void)unit;
  return ns_of_clock(CLOCK_MONOTONIC);
}

/* The flight recorder's stamp: the coarse clock is read from the vDSO
   without touching the TSC, at the kernel tick's resolution.  The ring
   orders its events by sequence number, not by time. */
CAMLprim value obs_clock_coarse_ns(value unit)
{
  (void)unit;
#ifdef CLOCK_MONOTONIC_COARSE
  return ns_of_clock(CLOCK_MONOTONIC_COARSE);
#else
  return ns_of_clock(CLOCK_MONOTONIC);
#endif
}
