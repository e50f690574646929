(** The paper's end-to-end design methodology in one call:

    1. approximate the Pareto front with PMO2 (Section 2.1);
    2. mine the front — closest-to-ideal, shadow minima, equally spaced
       trade-offs (Section 2.2);
    3. screen the mined designs for robustness (Section 2.3).

    The robustness property function defaults to the negated first
    objective (which is CO2 uptake / electron production in this
    library's problems, since everything is minimized internally). *)

type config = {
  pmo2 : Pmo2.Archipelago.config;
  generations : int;
  seed : int;
  robustness_delta : float;   (** perturbation amplitude, paper: 0.10 *)
  robustness_eps : float;     (** yield threshold fraction, paper: 0.05 *)
  robustness_trials : int;    (** global-analysis ensemble size, paper: 5000 *)
  sweep_points : int;         (** equally spaced points screened, paper: 50 *)
}

val default_config : config
(** Paper settings on top of {!Pmo2.Archipelago.default_config}, with
    1000 generations. *)

type mined = {
  solution : Moo.Solution.t;
  label : string;         (** "closest-to-ideal", "min f1", ... *)
  yield_pct : float;      (** global-analysis Γ·100 *)
}

type outcome = {
  front : Moo.Solution.t list;
  mined : mined list;     (** closest-to-ideal + one shadow minimum per objective *)
  sweep : Robustness.Screen.entry list;  (** the Figure 3 surface points *)
  max_yield : mined;      (** most robust solution seen across mined + sweep *)
  evaluations : int;
}

val run :
  ?property:(float array -> float) ->
  ?initial:Moo.Solution.t list ->
  Moo.Problem.t ->
  config ->
  outcome
(** Optimize, mine and screen.  The robustness screens run
    {!Robustness.Yield.gamma_pool} on the default domain pool under seed
    [config.seed + 1], so [property] may be called from several domains
    at once — the requirement {!Pmo2.Archipelago.config}[.parallel]
    already places on the problem's [eval]. *)
