(** Steady-state evaluation of a leaf design. *)

type report = {
  converged : bool;
  y : float array;       (** final metabolite state *)
  fluxes : Model.fluxes;
  uptake : float;        (** net CO2 assimilation, µmol m⁻² s⁻¹ *)
  nitrogen : float;      (** protein-nitrogen, mg l⁻¹ (paper units) *)
  solver_tier : Numerics.Ode.tier;
      (** deepest fallback tier the integration needed ({!Numerics.Ode.Adaptive}
          when plain dopri5 sufficed throughout) *)
}

val evaluate :
  ?kinetics:Params.kinetics ->
  ?y0:float array ->
  ?deadline:int ->
  env:Params.env ->
  ratios:float array ->
  unit ->
  report
(** Relax the kinetic model to steady state for the enzyme-activity
    ratio vector [ratios] (1.0 = natural) and report uptake and nitrogen.

    The root comes from {!Numerics.Ode.pseudo_transient} over
    {!Model.pattern}, started at [y0] (default {!State.initial}).  It is
    accepted when one 20-unit {!Numerics.Ode.integrate_fallback} window
    from it keeps uptake within 1e-3·(|u|+1); the report then
    carries the root's state, fluxes and uptake, [converged = true] and
    the window's tier.  Otherwise the [photo.ptc_fallbacks] counter is
    incremented and 20-unit windows run from [y0] until uptake is stable
    across two windows, for at most 400 time units.  Designs that reach
    that limit, or whose integration fails (pathological enzyme vectors),
    are reported with [converged = false] and the last reachable state.

    Raises [Invalid_argument] unless [ratios] has {!Enzyme.count}
    entries and [y0] has {!State.n}.

    [deadline] (an {!Obs.Clock.now_ns} timestamp) makes PTC and the
    integrators raise {!Numerics.Ode.Deadline} once expired — use it
    under a {!Runtime.Guard} to turn runaway designs into penalty
    objectives instead of hung islands. *)

val uptake_score : report -> float
(** The uptake every design problem and the robustness property score:
    [uptake] when the report converged, 0 otherwise. *)

val natural : ?kinetics:Params.kinetics -> env:Params.env -> unit -> report
(** The natural leaf (all ratios 1). *)
