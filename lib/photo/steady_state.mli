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

    The steady state is a certified root of
    {!Numerics.Ode.pseudo_transient} over {!Model.pattern}: f = 0, and
    every eigenvalue of the Jacobian there has a negative real part.
    PTC starts at [y0] (default {!State.initial}).  When it returns a
    root, the report carries the root's state, fluxes and uptake, and
    [converged = true].  Otherwise the design restarts once: the
    [photo.ptc_fallbacks] counter is incremented, one 20-unit
    {!Numerics.Ode.dopri5} window runs from [y0] at [rtol = 2e-4],
    [atol = 1e-7], and PTC runs again from the window's end.  When that
    returns no root either, the report has [converged = false] and the
    window's end state; when the window itself failed (it raised
    {!Numerics.Ode.Step_underflow} or ended on a non-finite state), the
    state [y0].

    Raises [Invalid_argument] unless [ratios] has {!Enzyme.count}
    entries and [y0] has {!State.n}.

    [deadline] (an {!Obs.Clock.now_ns} timestamp) makes PTC and the
    window raise {!Numerics.Ode.Deadline} once expired — use it
    under a {!Runtime.Guard} to turn runaway designs into penalty
    objectives instead of hung islands. *)

val uptake_score : report -> float
(** The uptake every design problem and the robustness property score:
    [uptake] when the report converged, 0 otherwise. *)

val natural : ?kinetics:Params.kinetics -> env:Params.env -> unit -> report
(** The natural leaf (all ratios 1). *)
