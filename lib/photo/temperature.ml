let reference_celsius = 25.

let vmax_scale t_c =
  let arrhenius = 2.0 ** ((t_c -. reference_celsius) /. 10.) in
  (* Logistic deactivation above 38 °C, normalized to 1 at 25 °C. *)
  let deact t = 1. /. (1. +. exp (0.45 *. (t -. 38.))) in
  arrhenius *. deact t_c /. deact reference_celsius

let kinetics_at ?(base = Params.default) t_c =
  let q t q10 = q10 ** ((t -. reference_celsius) /. 10.) in
  {
    base with
    Params.kc_eff = base.Params.kc_eff *. q t_c 2.1;
    gamma_star = base.Params.gamma_star *. q t_c 1.75;
    v_light = base.Params.v_light *. vmax_scale t_c;
  }

let natural_ratios () = Array.make Enzyme.count 1.

let uptake_at ?kinetics ?ratios ~env ~t_c () =
  let base = match kinetics with Some k -> k | None -> Params.default in
  let ratios = match ratios with Some r -> r | None -> natural_ratios () in
  let k = kinetics_at ~base t_c in
  let scale = vmax_scale t_c in
  let scaled = Array.map (fun r -> r *. scale) ratios in
  (Steady_state.evaluate ~kinetics:k ~env ~ratios:scaled ()).Steady_state.uptake

let a_t_curve ?ratios ~env ~t_values () =
  List.map (fun t_c -> (t_c, uptake_at ?ratios ~env ~t_c ())) t_values

let optimum ?ratios ~env () =
  (* Golden-section search; A(T) is unimodal under the peaked capacity
     factor. *)
  let f t = uptake_at ?ratios ~env ~t_c:t () in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec go a b fa_cache =
    ignore fa_cache;
    if b -. a < 0.25 then
      let t = (a +. b) /. 2. in
      (t, f t)
    else begin
      let c = b -. (phi *. (b -. a)) in
      let d = a +. (phi *. (b -. a)) in
      if f c >= f d then go a d () else go c b ()
    end
  in
  go 10. 45. ()
