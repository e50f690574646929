(** Standard multi-objective test problems, used by the test suite and the
    ablation studies (and handy for users validating optimizer setups). *)

val schaffer : Problem.t
(** SCH: f = (x², (x−2)²) on [−10, 10]; convex front for x ∈ [0, 2]. *)

val zdt1 : n:int -> Problem.t
(** Convex front f2 = 1 − √f1. *)

val zdt2 : n:int -> Problem.t
(** Concave front f2 = 1 − f1². *)

val zdt3 : n:int -> Problem.t
(** Disconnected front (five segments). *)

val dtlz2 : n:int -> n_obj:int -> Problem.t
(** Spherical front Σ fᵢ² = 1; scalable in objectives. *)

val fonseca : Problem.t
(** FON (n = 3): concave front, bounded decision space [−4, 4]³. *)

val constrained_schaffer : Problem.t
(** {!schaffer} with the constraint x ≥ 1 (violation = max(0, 1−x)) —
    exercises constrained dominance. *)

val true_front_zdt1 : k:int -> float array list
(** [k] points of ZDT1's analytic front (for GD/IGD references). *)
