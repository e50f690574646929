(** Perturbation ensembles for robustness analysis (Section 2.3).

    A perturbation multiplies components of a design vector by independent
    uniform factors in [\[1 − δ, 1 + δ\]]; the paper fixes δ = 10%.

    All functions raise [Invalid_argument] on a malformed request
    ([delta] outside [\[0, 1)] or an out-of-range [index]), so validation
    survives [-noassert] release builds. *)

val stream_trial :
  seed:int -> delta:float -> ?index:int -> float array -> int -> float array
(** [stream_trial ~seed ~delta x t] — trial [t] of the stream ensemble:
    the perturbation drawn from {!Numerics.Rng.stream}[ ~seed t], global
    or, with [index], local.  A pure function of its arguments, so trials
    may be computed in any order, on any domain, without changing the
    ensemble {!Yield.gamma_pool} evaluates. *)
