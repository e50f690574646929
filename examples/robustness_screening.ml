(* Robustness screening (Section 2.3): the yield Γ under global and local
   Monte-Carlo perturbation of a leaf design.

   Reproduces the paper's protocol: 10% multiplicative perturbations,
   ε = 5% of the nominal uptake, 5000-trial global ensembles and
   200-trial per-enzyme local ensembles.

     dune exec examples/robustness_screening.exe *)

let () =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let warm = (Photo.Steady_state.natural env).Photo.Steady_state.y in
  let uptake ratios =
    (Photo.Steady_state.evaluate ~y0:warm ~env ~ratios ()).Photo.Steady_state.uptake
  in
  let seed = 42 in

  (* Global analysis of the natural leaf (reduced ensemble for the demo;
     pass trials:5000 for the paper's budget). *)
  let natural = Array.make Photo.Enzyme.count 1. in
  let global = Robustness.Yield.gamma_pool ~seed ~f:uptake ~trials:600 natural in
  Printf.printf
    "natural leaf: nominal uptake %.3f, global yield %.1f%% (%d/%d trials within 5%%)\n\n"
    global.Robustness.Yield.nominal global.Robustness.Yield.yield_pct
    global.Robustness.Yield.survivors global.Robustness.Yield.trials;

  (* Local analysis: which enzymes is the uptake most sensitive to? *)
  Printf.printf "local (one-enzyme-at-a-time) yields, 120 trials each:\n";
  let profile = Robustness.Screen.local_analysis ~seed ~f:uptake ~trials:120 natural in
  let sorted =
    List.sort
      (fun a b -> compare a.Robustness.Screen.yield_pct b.Robustness.Screen.yield_pct)
      profile
  in
  List.iter
    (fun p ->
      Printf.printf "  %-22s %6.1f%%%s\n"
        Photo.Enzyme.names.(p.Robustness.Screen.index)
        p.Robustness.Screen.yield_pct
        (if p.Robustness.Screen.yield_pct < 99.5 then "   <- sensitive" else ""))
    sorted;

  (* A deliberately fragile design: everything at the minimum ratio. *)
  let starved = Array.make Photo.Enzyme.count 0.3 in
  let fragile = Robustness.Yield.gamma_pool ~seed ~f:uptake ~trials:300 starved in
  Printf.printf "\nstarved design: nominal %.3f, yield %.1f%% — compare with the natural leaf\n"
    fragile.Robustness.Yield.nominal fragile.Robustness.Yield.yield_pct
