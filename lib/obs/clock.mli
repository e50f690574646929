(** Monotonic clock.

    A thin shim over [clock_gettime(CLOCK_MONOTONIC)] — unaffected by
    NTP adjustments or [settimeofday], unlike [Unix.gettimeofday].  Time
    is reported as whole nanoseconds in an immediate [int] (no
    allocation on the probe path; 63 bits of nanoseconds last ~146
    years), relative to an unspecified epoch: only differences are
    meaningful. *)

external now_ns : unit -> int = "obs_clock_monotonic_ns" [@@noalloc]
(** Monotonic nanoseconds since an arbitrary origin.  Declared
    [external] so callers in other modules call the C stub directly. *)

external coarse_now_ns : unit -> int = "obs_clock_coarse_ns" [@@noalloc]
(** [CLOCK_MONOTONIC_COARSE] in nanoseconds, on the same origin as
    {!now_ns} but with the kernel tick's resolution (~4 ms here) at a
    fraction of the cost: the flight recorder stamps its events with
    it.  Falls back to [CLOCK_MONOTONIC] where the coarse clock does not
    exist. *)

val ns_to_us : int -> float
(** Nanoseconds as fractional microseconds (the Chrome trace unit). *)

val ns_to_ms : int -> float
