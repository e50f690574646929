type sample = {
  t : float;
  state : float array;
  assimilation : float;
}

let time_course ?(kinetics = Params.default) ?y0 ~env ~ratios ~t_end ~dt_sample () =
  if not (t_end > 0. && dt_sample > 0.) then
    invalid_arg "Photo.Simulate.time_course: t_end and dt_sample must be positive";
  let vmax = Enzyme.vmax_of_ratios ratios in
  let f = Model.rhs kinetics env ~vmax in
  let y0 =
    match y0 with
    | Some y when Array.length y <> State.n ->
      invalid_arg "Photo.Simulate.time_course: y0 length"
    | Some y -> Array.copy y
    | None -> State.initial ()
  in
  let assim y = Model.assimilation kinetics (Model.fluxes kinetics env ~vmax y) in
  let rec go t y acc =
    let acc = { t; state = Array.copy y; assimilation = assim y } :: acc in
    if t >= t_end -. 1e-9 then List.rev acc
    else
      let t1 = Float.min t_end (t +. dt_sample) in
      match Numerics.Ode.dopri5 ~rtol:2e-4 ~atol:1e-7 ~f ~t0:t ~t1 ~y0:y () with
      | r -> go r.Numerics.Ode.t r.Numerics.Ode.y acc
      | exception Numerics.Ode.Step_underflow _ -> List.rev acc
  in
  go 0. y0 []

let dark_adapted () =
  let y = State.initial () in
  (* Darkness: the Calvin cycle intermediates have drained and the
     adenylate pool sits mostly as ADP. *)
  y.(State.rubp) <- 0.005;
  y.(State.pga) <- 0.3;
  y.(State.dpga) <- 0.01;
  y.(State.tp) <- 0.02;
  y.(State.fbp) <- 0.01;
  y.(State.e4p) <- 0.005;
  y.(State.sbp) <- 0.01;
  y.(State.s7p) <- 0.02;
  y.(State.pp) <- 0.01;
  y.(State.atp) <- 0.1;
  y

let induction ?kinetics ~env ~ratios () =
  time_course ?kinetics ~y0:(dark_adapted ()) ~env ~ratios ~t_end:300. ~dt_sample:10. ()

let induction_half_time samples =
  match List.rev samples with
  | [] -> invalid_arg "Simulate.induction_half_time: empty"
  | final :: _ ->
    let target = final.assimilation /. 2. in
    let rec find = function
      | [] -> final.t
      | s :: rest -> if s.assimilation >= target then s.t else find rest
    in
    find samples
