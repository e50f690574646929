(** Guarded objective evaluation.

    A Monte-Carlo robustness campaign is only as good as its failure
    handling: one [Ode.Step_underflow] escaping a single candidate
    evaluation otherwise aborts an entire archipelago run, and NaN
    objectives silently poison dominance sorting.  [Guard] wraps any
    objective function so that exceptions and non-finite objective values
    become a large (configurable) finite penalty, while per-run telemetry
    counts how often each failure class fired.

    Counters are {!Atomic} so a single guard can serve every island of a
    parallel archipelago. *)

type stats = {
  evaluations : int;  (** total guarded calls *)
  exceptions : int;   (** calls whose objective raised *)
  non_finite : int;   (** calls returning at least one NaN/±inf component *)
}

val failures : stats -> int
(** [exceptions + non_finite]. *)

type t

val create : ?penalty:float -> unit -> t
(** Fresh guard.  [penalty] (default [1e12]) replaces every objective
    component of a failed evaluation; it must be finite — the whole point
    is to keep infinities out of dominance sorting.  All objectives in
    this library are minimized or handled via dominance, so a large
    positive penalty makes failed candidates maximally unattractive
    without breaking comparisons. *)

val wrap :
  t -> n_obj:int -> (float array -> float array) -> float array -> float array
(** [wrap t ~n_obj f] evaluates like [f] but: an exception (other than
    [Sys.Break], [Out_of_memory] and [Stack_overflow], which re-raise)
    yields [n_obj] penalty components; NaN/±inf components are replaced by
    the penalty.  Telemetry is updated on every call. *)

val wrap_problem : t -> Moo.Problem.t -> Moo.Problem.t
(** Guard a problem's [eval] (and [violation], when present) in place of
    the raw closures; everything else is shared. *)

val stats : t -> stats
(** Snapshot of the counters. *)

val set_stats : t -> stats -> unit
(** Overwrite the counters, e.g. when restoring a checkpoint that
    recorded the guard's telemetry alongside the optimizer state. *)

val pp_stats : Format.formatter -> stats -> unit
