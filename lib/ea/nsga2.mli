(** NSGA-II (Deb et al. 2002) with a steppable state, so an island model
    can interleave generations with migration. *)

type config = {
  pop_size : int;
  eta_c : float;  (** SBX distribution index *)
  mutation_prob : float option;
      (** [None] is {!Operators.mutation_prob}[ n_var] *)
  variation :
    (Numerics.Rng.t -> float array -> float array -> float array * float array)
    option;
      (** custom variation operator (parents → children); when set it
          replaces SBX + polynomial mutation entirely.  Used by problems
          whose feasible region is not box-shaped (e.g. flux spaces). *)
  pool : Parallel.Pool.t option;
      (** evaluate populations on this domain pool.  Variation consumes
          the generator before any evaluation and evaluation is pure, so
          pooled runs are bit-identical to [None] at any worker count;
          only wall clock changes.  Requires the problem's [eval] to be
          callable from multiple domains. *)
  cache : Moo.Solution.t Cache.Memo.t option;
      (** memoize evaluations by bit-exact genotype in this LRU (see
          {!Cache.Batch}): offspring identical to an earlier candidate
          replay its solution instead of re-evaluating.  Bit-identical
          results with or without; {!evaluations} still counts requested
          evaluations, so budgets stay comparable. *)
}

val default_config : config
(** pop 100, {!Operators.eta_c}, [mutation_prob = None], SBX and
    polynomial mutation at {!Operators.crossover_prob} and
    {!Operators.eta_m}. *)

type state

val init : ?initial:Moo.Solution.t list -> Moo.Problem.t -> config -> Numerics.Rng.t -> state
(** Build and evaluate the initial population; [initial] seeds part of it. *)

val step : state -> int -> unit
(** Advance by [n] generations. *)

val population : state -> Moo.Solution.t array
val front : state -> Moo.Solution.t list
(** Current first non-dominated front. *)

val evaluations : state -> int

type snapshot = {
  snap_pop : Moo.Solution.t array;
  snap_evals : int;
  snap_gen : int;
  snap_rng : int64;
}
(** Pure-data capture of the evolving state (population, counters, RNG
    stream); marshalable, so checkpointable. *)

val snapshot : state -> snapshot

val restore : state -> snapshot -> unit
(** Overwrite [state] with a previously captured snapshot.  Ranks and
    crowding are recomputed (they are derived data), so evolution after
    [restore] is bit-identical to evolution after {!snapshot}. *)

val select_emigrants : state -> int -> Moo.Solution.t list
(** Up to [k] distinct members of the first front (crowding-diverse). *)

val inject : state -> Moo.Solution.t list -> unit
(** Merge immigrants and re-apply environmental selection. *)

val run :
  ?initial:Moo.Solution.t list ->
  generations:int ->
  seed:int ->
  Moo.Problem.t ->
  config ->
  Moo.Solution.t list
(** Convenience one-shot run; returns the final first front. *)

(** {2 Internals exposed for testing} *)

(* robustlint: allow R12 — test_ea's "rank structure", "all incomparable" and "dominance chain" cases *)
val fast_non_dominated_sort : Moo.Solution.t array -> int array
(** Rank (0 = best) per index, Deb's constrained domination. *)

(* robustlint: allow R12 — test_ea's "crowding extremes" and "constrained ranking" cases *)
val crowding_distance : Moo.Solution.t array -> int array -> int -> float array
(** [crowding_distance pop ranks r] — crowding distances computed within
    rank [r] (entries of other ranks are 0). *)
