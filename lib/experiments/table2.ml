type row = {
  selection : string;
  uptake : float;
  nitrogen : float;
  yield_pct : float;
}

let compute () =
  let env = Photo.Params.present ~tp_export:Photo.Params.high_export in
  let b = Scale.budgets (Scale.current ()) in
  let front = Runs.leaf_front ~env in
  let property = Runs.uptake_property ~env in
  let seed = 77 in
  let yield_of s =
    (Robustness.Yield.gamma_pool ~seed ~f:property ~trials:b.Scale.yield_trials
       s.Moo.Solution.x)
      .Robustness.Yield.yield_pct
  in
  let cti = Moo.Mine.closest_to_ideal front in
  let shadows = Moo.Mine.shadow_minima front in
  let max_uptake = shadows.(0) (* objective 0 = -uptake *) in
  let min_nitrogen = shadows.(1) in
  let named =
    [
      ("Closest-to-ideal", cti);
      ("Max CO2 Uptake", max_uptake);
      ("Min Nitrogen", min_nitrogen);
    ]
  in
  let rows =
    List.map
      (fun (selection, s) ->
        {
          selection;
          uptake = Photo.Leaf.uptake_of s;
          nitrogen = Photo.Leaf.nitrogen_of s;
          yield_pct = yield_of s;
        })
      named
  in
  (* Max-yield: screen an equally spaced sample of the front (50 points in
     the paper) and keep the most robust. *)
  let sweep =
    Robustness.Screen.front_sweep ~seed ~f:property
      ~trials:(Stdlib.max 100 (b.Scale.yield_trials / 4))
      ~k:b.Scale.sweep_points front
  in
  let best = Robustness.Screen.max_yield sweep in
  rows
  @ [
      {
        selection = "Max Yield";
        uptake = Photo.Leaf.uptake_of best.Robustness.Screen.solution;
        nitrogen = Photo.Leaf.nitrogen_of best.Robustness.Screen.solution;
        yield_pct = best.Robustness.Screen.yield.Robustness.Yield.yield_pct;
      };
    ]

let paper =
  [
    ("Closest-to-ideal", 21.213, 1.270e5, 67.);
    ("Max CO2 Uptake", 39.968, 2.641e5, 65.);
    ("Min Nitrogen", 5.7, 3.845e4, 50.);
    ("Max Yield", 37.116, 2.291e5, 82.);
  ]

let print () =
  Printf.printf "== Table 2: mined Pareto solutions and robustness yields ==\n";
  Printf.printf "%-18s %10s %12s %8s\n" "Selection" "Uptake" "Nitrogen" "Yield%%";
  List.iter
    (fun r ->
      Printf.printf "%-18s %10.3f %12.0f %8.1f\n" r.selection r.uptake r.nitrogen
        r.yield_pct)
    (compute ());
  Printf.printf "paper:\n";
  List.iter
    (fun (s, u, n, y) -> Printf.printf "%-18s %10.3f %12.0f %8.1f\n" s u n y)
    paper
