(** The robustness condition ρ and the yield Γ (Eqs. 3–4 of the paper).

    For a property function [f] (e.g. CO2 uptake of an enzyme partition),
    a perturbed design x' preserves the property of x when
    |f(x) − f(x')| ≤ ε; the paper expresses ε as a percentage of the
    nominal value.  The yield Γ is the fraction of an ensemble that
    preserves the property. *)

type result = {
  nominal : float;       (** f(x) *)
  yield_pct : float;     (** Γ·100 *)
  trials : int;
  survivors : int;
}

val gamma_pool :
  ?pool:Parallel.Pool.t ->
  seed:int ->
  f:(float array -> float) ->
  ?delta:float ->
  ?eps_frac:float ->
  ?trials:int ->
  ?index:int ->
  float array ->
  result
(** Monte-Carlo yield over the stream ensemble ({!Perturb.stream_trial}),
    fanned out over a domain pool (default {!Parallel.Pool.get}), so [f]
    may be called from several domains at once.  Trial [t] draws from
    {!Numerics.Rng.stream}[ ~seed t], so the result is a pure function of
    [(seed, x, parameters)]: bit-identical at any worker count, a
    one-domain pool included.  Defaults follow the paper: [delta] 10%
    perturbation, [eps_frac] 5% of [|f x|], [trials] 5000 for the global
    analysis ([index = None]); with [index] only that component is
    perturbed (the local analysis).  Raises [Invalid_argument] when
    [trials <= 0]. *)
