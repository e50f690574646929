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

let m_restarts = Obs.Metrics.counter "photo.ptc_fallbacks"

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
  (* One 20-unit window from [y].  A window that underflows or ends on a
     non-finite state has failed. *)
  let window y =
    match Numerics.Ode.dopri5 ~rtol:2e-4 ~atol:1e-7 ?deadline ~f ~t0:0. ~t1:20. ~y0:y () with
    | r when Array.for_all Float.is_finite r.Numerics.Ode.y -> Some r.Numerics.Ode.y
    | _ -> None
    | exception Numerics.Ode.Step_underflow _ -> None
  in
  let pattern = Model.pattern () in
  let root y = (Numerics.Ode.pseudo_transient ?deadline ~pattern ~f ~y0:y ()).Numerics.Ode.root in
  (* A certified root from [y0]; otherwise one window from [y0] and one
     more PTC solve from its end. *)
  match root y0 with
  | Some r -> finish true r
  | None -> (
    Obs.Metrics.incr m_restarts;
    match window y0 with
    | None -> finish false y0
    | Some y1 -> ( match root y1 with Some r -> finish true r | None -> finish false y1))

let uptake_score r = if r.converged then r.uptake else 0.

let natural env = evaluate ~env ~ratios:(Array.make Enzyme.count 1.) ()
