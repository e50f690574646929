(** OptKnock comparison experiment (§3.2 cites Burgard et al. 2003):
    growth-coupled succinate production in the E. coli core by reaction
    deletion — the single-organism, single-objective strain-design
    approach the paper's multi-objective formulation generalizes. *)

type row = {
  label : string;  (** ["wild type"] or ["dPFL dLDH"] *)
  coupling : Fba.Knockout.coupling option;  (** [None] when the deletions are lethal *)
}

(* robustlint: allow R12 — @repro-check (test/repro_check.ml) pins the OptKnock rows *)
val compute : unit -> row list
(** [wild-type row; ΔPFL ΔLDH row]. *)

val print : unit -> unit
