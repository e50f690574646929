type report = {
  converged : bool;
  y : float array;
  fluxes : Model.fluxes;
  uptake : float;
  nitrogen : float;
}

let nitrogen_of ~kinetics ratios =
  let vmax = Enzyme.vmax_of_ratios ratios in
  Enzyme.raw_nitrogen vmax *. kinetics.Params.nitrogen_scale

let m_fallbacks = Obs.Metrics.counter "photo.ptc_fallbacks"

let evaluate ?(kinetics = Params.default) ?y0 ?deadline ~env ~ratios () =
  if Array.length ratios <> Enzyme.count then
    invalid_arg "Steady_state.evaluate: ratios length";
  let vmax = Enzyme.vmax_of_ratios ratios in
  let f = Model.rhs kinetics env ~vmax in
  let y0 =
    match y0 with
    | Some y when Array.length y <> State.n -> invalid_arg "Steady_state.evaluate: y0 length"
    | Some y -> Array.copy y
    | None -> State.initial ()
  in
  let finish converged y =
    let fl = Model.fluxes kinetics env ~vmax y in
    {
      converged;
      y;
      fluxes = fl;
      uptake = Model.assimilation kinetics fl;
      nitrogen = nitrogen_of ~kinetics ratios;
    }
  in
  (* One relaxation window from (t, y).  A window that underflows or ends
     on a non-finite state has failed. *)
  let window = 20. in
  let integrate t y =
    match
      Numerics.Ode.dopri5 ~rtol:2e-4 ~atol:1e-7 ?deadline ~f ~t0:t ~t1:(t +. window) ~y0:y ()
    with
    | r when Array.for_all Float.is_finite r.Numerics.Ode.y -> Some r
    | _ -> None
    | exception Numerics.Ode.Step_underflow _ -> None
  in
  (* The fallback: converged when the net assimilation is stable across
     two successive integration windows (small persistent ATP/Pi
     oscillations are physiological and irrelevant to the reported
     uptake) and the state rate is modest.  A design still drifting at
     [t_max], or whose window fails, is reported unconverged at the last
     reachable state. *)
  let t_max = 400. in
  let assim y = Model.assimilation kinetics (Model.fluxes kinetics env ~vmax y) in
  let dy = Array.make State.n 0. in
  let rec advance t y prev_a stable =
    let a = assim y in
    let tol_a = 2e-4 *. (Float.abs a +. 1.) in
    let state_rate =
      f t y dy;
      Numerics.Vec.norm_inf dy /. (Numerics.Vec.norm_inf y +. 1.)
    in
    let stable = if Float.abs (a -. prev_a) <= tol_a && state_rate < 2e-3 then stable + 1 else 0 in
    if stable >= 2 then finish true y
    else if t >= t_max then finish false y
    else
      match integrate t y with
      | Some r -> advance r.Numerics.Ode.t r.Numerics.Ode.y a stable
      | None -> finish false y
  in
  (* A PTC root is accepted when one window integrated from it keeps the
     uptake within 1e-3·(|u|+1).  The band is wider than the loop's 2e-4
     and there is no state-rate test: on the probe designs of DESIGN §22
     one window from a PTC root moves the uptake by up to 8.2e-4·(|u|+1)
     and leaves a state rate of up to 1.7e-2, so the loop's tests would
     reject 51 of 173 roots. *)
  let accepted =
    match
      (Numerics.Ode.pseudo_transient ?deadline ~pattern:(Model.pattern ()) ~f ~y0 ())
        .Numerics.Ode.root
    with
    | None -> None
    | Some root -> (
      let u = assim root in
      match integrate 0. root with
      | Some r when Float.abs (assim r.Numerics.Ode.y -. u) <= 1e-3 *. (Float.abs u +. 1.) ->
        Some (finish true root)
      | _ -> None)
  in
  match accepted with
  | Some report -> report
  | None ->
    Obs.Metrics.incr m_fallbacks;
    advance 0. y0 infinity 0

let uptake_score r = if r.converged then r.uptake else 0.

let natural ?kinetics ~env () =
  evaluate ?kinetics ~env ~ratios:(Array.make Enzyme.count 1.) ()
