(** Pareto dominance relations (minimization). *)

type relation = Dominates | Dominated | Incomparable | Equal

val constrained : Solution.t -> Solution.t -> relation
(** Deb's constrained-domination: a feasible solution dominates an
    infeasible one; of two infeasible solutions the one with the smaller
    violation dominates; two feasible solutions compare by Pareto
    dominance. *)

val dominates : Solution.t -> Solution.t -> bool
(** [dominates a b] under {!constrained}. *)

val non_dominated : Solution.t list -> Solution.t list
(** The non-dominated subset (duplicates in objective space collapse to a
    single representative). *)

val non_dominated_objectives : float array list -> float array list
(** Non-dominated filter over raw objective vectors. *)
