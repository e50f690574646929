(** The Zhu et al. (2007) experiment underlying the paper's leaf model:
    re-partition the enzyme nitrogen at a {e fixed} total and maximize CO2
    uptake alone (single objective).  Zhu reported a ~60% uptake gain at
    the natural nitrogen; this module reproduces that cross-check.

    A candidate is a vector of 23 non-negative weights; it is scaled so
    its protein-nitrogen equals the target before evaluation, so the
    constraint holds exactly by construction. *)

(* robustlint: allow R12 — test_photo's "budget exact" and "uniform weights = natural" cases *)
val ratios_of_weights :
  ?kinetics:Params.kinetics -> target_nitrogen:float -> float array -> float array
(** Scale a weight vector into enzyme ratios whose nitrogen equals
    [target_nitrogen] (paper units, mg l⁻¹). *)

type result = {
  ratios : float array;      (** optimized enzyme ratios *)
  uptake : float;            (** optimized CO2 uptake *)
  natural_uptake : float;
  gain_pct : float;          (** 100·(uptake/natural − 1) *)
  evaluations : int;
}

val optimize :
  ?kinetics:Params.kinetics ->
  ?generations:int ->
  ?seed:int ->
  env:Params.env ->
  unit ->
  result
(** Maximize uptake at the natural leaf's nitrogen (default 80
    generations, GA population 60). *)
