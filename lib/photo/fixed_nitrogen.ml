let ratios_of_weights ~target_nitrogen w =
  if Array.length w <> Enzyme.count then
    invalid_arg "Photo.Fixed_nitrogen.ratios_of_weights: one weight per enzyme";
  if target_nitrogen <= 0. then
    invalid_arg "Photo.Fixed_nitrogen.ratios_of_weights: nitrogen budget must be positive";
  (* Nitrogen is linear in the ratios, so a single scale factor enforces
     the budget exactly. *)
  let weights = Array.map (fun wi -> Float.max 1e-6 wi) w in
  let n_of r =
    Enzyme.raw_nitrogen (Enzyme.vmax_of_ratios r) *. Params.default.Params.nitrogen_scale
  in
  let base = n_of weights in
  Array.map (fun wi -> wi *. target_nitrogen /. base) weights

type result = {
  ratios : float array;
  uptake : float;
  natural_uptake : float;
  gain_pct : float;
  evaluations : int;
}

let optimize ?(generations = 80) ~env () =
  let natural = Steady_state.natural env in
  let target_nitrogen = natural.Steady_state.nitrogen in
  let warm = natural.Steady_state.y in
  let n = Enzyme.count in
  let objective w =
    let ratios = ratios_of_weights ~target_nitrogen w in
    Steady_state.uptake_score (Steady_state.evaluate ~y0:warm ~env ~ratios ())
  in
  let ga =
    Ea.Ga.maximize ~generations ~seed:2011 ~lower:(Array.make n 0.05)
      ~upper:(Array.make n 3.) objective
  in
  let ratios = ratios_of_weights ~target_nitrogen ga.Ea.Ga.best_x in
  {
    ratios;
    uptake = ga.Ea.Ga.best_f;
    natural_uptake = natural.Steady_state.uptake;
    gain_pct = 100. *. ((ga.Ea.Ga.best_f /. natural.Steady_state.uptake) -. 1.);
    evaluations = ga.Ea.Ga.evaluations;
  }
