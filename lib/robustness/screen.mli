(** Robustness screening of Pareto-front solutions: the paper's Table 2
    yields, the 50-point front sweep, and the Figure 3 Pareto-surface
    (robustness vs the two functional objectives).

    The property function is supplied by the caller (for the leaf problem
    it is the CO2 uptake of an enzyme-ratio vector), so the screen is
    generic over problems.  Every screen runs {!Yield.gamma_pool} on the
    default domain pool, so [f] may be called from several domains at
    once.  Item [i] of a screen (a solution, or a component in the local
    analysis) uses seed [seed + i]: results are a pure function of
    [(seed, inputs, trials)], identical at any pool width. *)

type entry = {
  solution : Moo.Solution.t;
  yield : Yield.result;
}

val front_sweep :
  seed:int ->
  f:(float array -> float) ->
  ?trials:int ->
  k:int ->
  Moo.Solution.t list ->
  entry list
(** Global-analysis yield of [k] equally spaced Pareto points (the
    Figure 3 surface); the whole front when it has at most [k]
    members. *)

type local_profile = { index : int; yield_pct : float }

val local_analysis :
  seed:int ->
  f:(float array -> float) ->
  ?trials:int ->
  float array ->
  local_profile list
(** Per-component yields (the paper's local analysis, 200 trials per
    component by default). *)

val max_yield : entry list -> entry
(** The entry with the highest yield; raises [Invalid_argument] on []. *)
