let ratio_min = 0.05
let ratio_max = 3.0

let problem ?(kinetics = Params.default) (env : Params.env) =
  let n = Enzyme.count in
  (* Warm start: every candidate integrates from the natural leaf's steady
     state, which sits close to the physiological attractor and roughly
     halves evaluation time. *)
  let warm = (Steady_state.natural ~kinetics ~env ()).Steady_state.y in
  Moo.Problem.make
    ~name:(Printf.sprintf "leaf-design/%s/tp=%g" env.Params.label env.Params.tp_export)
    ~n_obj:2
    ~lower:(Array.make n ratio_min)
    ~upper:(Array.make n ratio_max)
    (fun ratios ->
      let r = Steady_state.evaluate ~kinetics ~y0:warm ~env ~ratios () in
      (* An unconverged design scores zero uptake at its nitrogen cost,
         which the optimizer abandons quickly. *)
      [| -.Steady_state.uptake_score r; r.Steady_state.nitrogen |])

let uptake_of (s : Moo.Solution.t) = -.s.Moo.Solution.f.(0)
let nitrogen_of (s : Moo.Solution.t) = s.Moo.Solution.f.(1)

let natural_point ?kinetics env =
  let r = Steady_state.natural ?kinetics ~env () in
  (r.Steady_state.uptake, r.Steady_state.nitrogen)
