(** Table 2 — mined trade-off solutions and their robustness yields:
    closest-to-ideal, maximum CO2 uptake, minimum nitrogen, and the
    maximum-yield solution found across an equally spaced front sweep
    (Ci = 270, high triose-P export; ensemble per Section 2.3: 10%
    perturbations, ε = 5%). *)

type row = {
  selection : string;
  uptake : float;
  nitrogen : float;
  yield_pct : float;
}

(* robustlint: allow R12 — @repro-check (test/repro_check.ml) pins Table 2's rows *)
val compute : unit -> row list
val print : unit -> unit
