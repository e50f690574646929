(** Global and relative Pareto coverage (Eqs. 1–2 of the paper).

    Given fronts [P₁ … Pₘ], let [P_A] be the non-dominated subset of their
    union ("global Pareto front").  Then for front [Pᵢ]:
    - global coverage  [Gp(Pᵢ, P_A) = |Pᵢ ∩ P_A| / |P_A|]
    - relative coverage [Rp(Pᵢ, P_A) = |Pᵢ ∩ P_A| / |Pᵢ|]. *)

val union_front : Solution.t list list -> Solution.t list
(** The non-dominated union [P_A] of the given fronts. *)

val gp : Solution.t list -> Solution.t list -> float
(** [gp front union] — fraction of the union front contributed by [front].
    Membership is objective equality within 1e-9. *)

val rp : Solution.t list -> Solution.t list -> float
(** [rp front union] — fraction of [front] that is globally Pareto optimal. *)
