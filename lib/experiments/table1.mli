(** Table 1 — front-quality comparison of PMO2 against MOEA/D on the leaf
    design problem (Ci = 270, triose-P export 3 mmol l⁻¹ s⁻¹) at matched
    evaluation budgets: number of Pareto-optimal points, relative coverage
    Rp, global coverage Gp, and the normalized hypervolume Vp. *)

type row = {
  algorithm : string;
  points : int;
  rp : float;
  gp : float;
  vp : float;
  evaluations : int;
}

(* robustlint: allow R12 — @repro-check (test/repro_check.ml) pins Table 1's rows *)
val compute : unit -> row list
(** [PMO2 row; MOEA/D row]. *)

val print : unit -> unit
