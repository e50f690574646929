(** The paper's photosynthesis design problem as a {!Moo.Problem}:
    maximize CO2 uptake while minimizing protein-nitrogen, over enzyme
    activity ratios.

    Decision space: 23 ratios to the natural activities, in
    [\[ratio_min, ratio_max\]].  Objectives (both minimized):
    [f0 = −uptake (µmol m⁻² s⁻¹)], [f1 = nitrogen (mg l⁻¹)]. *)

(* robustlint: allow R12 — test_photo's problem-shape, bits, sweep and dataflow cases; test_numerics' "steady state timeout" *)
val ratio_min : float
(** 0.05 — enzymes cannot be fully switched off (photorespiration serves
    processes outside the model, as the paper discusses). *)

(* robustlint: allow R12 — test_photo's problem-shape, bits, sweep and dataflow cases; test_numerics' "steady state timeout" *)
val ratio_max : float
(** 3.0 — the explored over-expression range; the paper's candidate
    ratios stay below ~2.2×. *)

val problem : Params.env -> Moo.Problem.t

val uptake_of : Moo.Solution.t -> float
(** Un-negate objective 0. *)

val nitrogen_of : Moo.Solution.t -> float

val natural_point : Params.env -> float * float
(** (uptake, nitrogen) of the natural leaf under [env]. *)
