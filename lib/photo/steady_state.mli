(** Steady-state evaluation of a leaf design. *)

type report = {
  converged : bool;
  y : float array;       (** final metabolite state *)
  fluxes : Model.fluxes;
  uptake : float;        (** net CO2 assimilation, µmol m⁻² s⁻¹ *)
  nitrogen : float;      (** protein-nitrogen, mg l⁻¹ (paper units) *)
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
    accepted when one 20-unit window from it keeps uptake within
    1e-3·(|u|+1); the report then carries the root's state, fluxes and
    uptake, and [converged = true].  Otherwise the [photo.ptc_fallbacks]
    counter is incremented and 20-unit windows run from [y0] until
    uptake is stable across two windows, for at most 400 time units.
    A window is one {!Numerics.Ode.dopri5} call at [rtol = 2e-4],
    [atol = 1e-7]; it has failed when it raises
    {!Numerics.Ode.Step_underflow} or ends on a non-finite state.  A
    design that reaches the time limit, or whose window fails, is
    reported with [converged = false] and the last reachable state; a
    failed acceptance window rejects the root.

    Raises [Invalid_argument] unless [ratios] has {!Enzyme.count}
    entries and [y0] has {!State.n}.

    [deadline] (an {!Obs.Clock.now_ns} timestamp) makes PTC and the
    windows raise {!Numerics.Ode.Deadline} once expired — use it
    under a {!Runtime.Guard} to turn runaway designs into penalty
    objectives instead of hung islands. *)

val uptake_score : report -> float
(** The uptake every design problem and the robustness property score:
    [uptake] when the report converged, 0 otherwise. *)

val natural : ?kinetics:Params.kinetics -> env:Params.env -> unit -> report
(** The natural leaf (all ratios 1). *)
