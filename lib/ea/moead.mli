(** MOEA/D (Zhang & Li 2007): decomposition into scalar subproblems with
    Tchebycheff aggregation of the raw objectives against the running
    ideal point, and neighborhood-restricted mating/replacement.  This is
    the paper's Table 1 comparison baseline; with no objective
    normalization it degrades when objectives have very different
    scales, which is the weakness Table 1 exposes. *)

type config = {
  pop_size : int;   (** number of weight vectors / subproblems *)
  neighbors : int;  (** neighborhood size T *)
  crossover_prob : float;
  eta_c : float;
  mutation_prob : float option;  (** default 1/n *)
  eta_m : float;
  max_replacements : int;  (** cap on neighbor replacements per child *)
  penalty : float;  (** violation penalty folded into the aggregation *)
}

val default_config : config

type state

val init : Moo.Problem.t -> config -> Numerics.Rng.t -> state
val step : state -> int -> unit
val evaluations : state -> int
val front : state -> Moo.Solution.t list
(** Non-dominated set of the final population (the original MOEA/D keeps
    no external archive). *)
