(** MOEA/D (Zhang & Li 2007): decomposition into scalar subproblems with
    Tchebycheff aggregation of the raw objectives against the running
    ideal point, and neighborhood-restricted mating/replacement.  This is
    the paper's Table 1 comparison baseline; with no objective
    normalization it degrades when objectives have very different
    scales, which is the weakness Table 1 exposes. *)

type config = {
  pop_size : int;  (** number of weight vectors / subproblems *)
}
(** The rest is fixed at Zhang & Li's settings: neighborhood size
    T = 20, at most n_r = 2 neighbor replacements per child, a
    violation penalty of 1e6 in the aggregation, and SBX and polynomial
    mutation on the standard settings of {!Operators}. *)

type state

val init : Moo.Problem.t -> config -> Numerics.Rng.t -> state
(** Raises [Invalid_argument] when [pop_size] is below the neighborhood
    size, 20. *)

val step : state -> int -> unit
val evaluations : state -> int
val front : state -> Moo.Solution.t list
(** Non-dominated set of the final population (the original MOEA/D keeps
    no external archive). *)
