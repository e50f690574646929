(** SPEA2 (Zitzler, Laumanns & Thiele 2001): strength-Pareto evolutionary
    algorithm with fine-grained fitness (strength + k-NN density) and an
    externally truncated archive.

    PMO2 is an archipelago framework "enclosing two optimization
    algorithms"; SPEA2 is the library's second island algorithm next to
    NSGA-II.  The interface mirrors {!Nsga2} so islands can host either. *)

type config = {
  pop_size : int;
  archive_size : int;
  cache : Moo.Solution.t Cache.Memo.t option;
      (** memoize evaluations by bit-exact genotype (see
          {!Nsga2.config}); results are bit-identical with or without. *)
}

val default_config : config
(** pop 100, archive 100.  Variation is SBX and polynomial mutation on
    the standard settings of {!Operators}. *)

type state

val init : ?initial:Moo.Solution.t list -> Moo.Problem.t -> config -> Numerics.Rng.t -> state
val step : state -> int -> unit
val front : state -> Moo.Solution.t list
(** Non-dominated members of the archive. *)

val evaluations : state -> int

type snapshot = {
  snap_pop : Moo.Solution.t array;
  snap_arch : Moo.Solution.t array;
  snap_evals : int;
  snap_gen : int;
  snap_rng : int64;
}
(** Pure-data capture of population, archive, counters and RNG stream. *)

val snapshot : state -> snapshot

val restore : state -> snapshot -> unit
(** Overwrite [state] with a captured snapshot; evolution afterwards is
    bit-identical to evolution from the capture point. *)

val select_emigrants : state -> int -> Moo.Solution.t list
val inject : state -> Moo.Solution.t list -> unit

(** {2 Internals exposed for testing} *)

(* robustlint: allow R12 — test_ea's "fitness nd < 1" and "fitness ordering" cases *)
val fitness : Moo.Solution.t array -> float array
(** SPEA2 fitness (raw strength-based fitness + density); lower is
    better, values < 1 are non-dominated. *)
