type point = {
  uptake : float;
  nitrogen : float;
  yield_pct : float;
}

let compute () =
  let env = Photo.Params.present ~tp_export:Photo.Params.high_export in
  let b = Scale.budgets (Scale.current ()) in
  let front = Runs.leaf_front ~env in
  let property = Runs.uptake_property ~env in
  let entries =
    Robustness.Screen.front_sweep ~seed:99 ~f:property ~trials:b.Scale.sweep_trials
      ~k:b.Scale.sweep_points front
  in
  List.map
    (fun (e : Robustness.Screen.entry) ->
      {
        uptake = Photo.Leaf.uptake_of e.Robustness.Screen.solution;
        nitrogen = Photo.Leaf.nitrogen_of e.Robustness.Screen.solution;
        yield_pct = e.Robustness.Screen.yield.Robustness.Yield.yield_pct;
      })
    entries

let extremes_vs_interior points =
  let sorted = List.sort (fun a b -> Float.compare a.uptake b.uptake) points in
  match sorted with
  | [] | [ _ ] | [ _; _ ] -> (0., 0.)
  | first :: rest ->
    let last = List.nth rest (List.length rest - 1) in
    let interior = List.filteri (fun i _ -> i < List.length rest - 1) rest in
    let best_interior =
      List.fold_left (fun m p -> Float.max m p.yield_pct) 0. interior
    in
    ((first.yield_pct +. last.yield_pct) /. 2., best_interior)

let print () =
  Printf.printf "== Figure 3: Pareto-surface — robustness vs uptake vs nitrogen ==\n";
  let points = compute () in
  Printf.printf "%10s %12s %8s\n" "Uptake" "Nitrogen" "Yield%%";
  List.iter
    (fun p -> Printf.printf "%10.3f %12.0f %8.1f\n" p.uptake p.nitrogen p.yield_pct)
    (List.sort (fun a b -> Float.compare a.uptake b.uptake) points);
  let extreme, interior = extremes_vs_interior points in
  Printf.printf
    "Extreme (PRM) mean yield %.1f%% vs best interior yield %.1f%% — the paper's\n\
     observation that relative minima are unstable while backed-off trade-offs\n\
     are significantly more reliable.\n"
    extreme interior
