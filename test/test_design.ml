(* Integration tests: the end-to-end design pipeline of the facade
   (optimize → mine → robustness-screen) on small problems, plus a reduced
   leaf-design integration run. *)

let schaffer = Testkit.Benchmarks.schaffer

let small_config =
  {
    Robustpath.Design.default_config with
    generations = 40;
    robustness_trials = 300;
    sweep_points = 10;
    pmo2 =
      {
        Pmo2.Archipelago.default_config with
        migration_period = 10;
        nsga2 = { Ea.Nsga2.default_config with pop_size = 20 };
      };
  }

let test_pipeline_runs () =
  let o = Robustpath.Design.run schaffer small_config in
  Alcotest.(check bool) "front" true (o.Robustpath.Design.front <> []);
  Alcotest.(check bool) "mined" true (List.length o.mined >= 3);
  Alcotest.(check bool) "sweep" true (o.sweep <> []);
  Alcotest.(check bool) "evaluations" true (o.evaluations > 0)

let test_pipeline_mined_labels () =
  let o = Robustpath.Design.run schaffer small_config in
  let labels = List.map (fun m -> m.Robustpath.Design.label) o.Robustpath.Design.mined in
  Alcotest.(check bool) "closest-to-ideal present" true (List.mem "closest-to-ideal" labels);
  Alcotest.(check bool) "shadow minima present" true
    (List.mem "min f0" labels && List.mem "min f1" labels)

let test_pipeline_shadow_minima_extremes () =
  let o = Robustpath.Design.run schaffer small_config in
  let front = o.Robustpath.Design.front in
  let min_f0 = List.fold_left (fun m s -> Float.min m s.Moo.Solution.f.(0)) infinity front in
  let shadow =
    List.find (fun m -> m.Robustpath.Design.label = "min f0") o.Robustpath.Design.mined
  in
  Alcotest.(check (float 1e-9)) "shadow attains minimum" min_f0
    shadow.Robustpath.Design.solution.Moo.Solution.f.(0)

let test_pipeline_yields_are_percentages () =
  let o = Robustpath.Design.run schaffer small_config in
  List.iter
    (fun m ->
      let y = m.Robustpath.Design.yield_pct in
      if y < 0. || y > 100. then Alcotest.failf "yield out of range: %g" y)
    o.Robustpath.Design.mined

let test_pipeline_max_yield_is_max () =
  let o = Robustpath.Design.run schaffer small_config in
  List.iter
    (fun m ->
      Alcotest.(check bool) "max is max" true
        (o.Robustpath.Design.max_yield.Robustpath.Design.yield_pct
         >= m.Robustpath.Design.yield_pct))
    o.Robustpath.Design.mined

let test_pipeline_custom_property () =
  (* With a constant property, everything is 100% robust. *)
  let o = Robustpath.Design.run ~property:(fun _ -> 1.) schaffer small_config in
  List.iter
    (fun m -> Alcotest.(check (float 1e-9)) "constant property" 100. m.Robustpath.Design.yield_pct)
    o.Robustpath.Design.mined

let test_pipeline_deterministic () =
  let a = Robustpath.Design.run schaffer small_config in
  let b = Robustpath.Design.run schaffer small_config in
  Alcotest.(check int) "same front" (List.length a.Robustpath.Design.front)
    (List.length b.Robustpath.Design.front)

(* A reduced end-to-end leaf-design run: the paper's structure on a small
   evaluation budget.  Marked slow. *)
let test_leaf_integration () =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let problem = Photo.Leaf.problem env in
  let cfg =
    {
      Robustpath.Design.default_config with
      generations = 12;
      robustness_trials = 100;
      sweep_points = 5;
      pmo2 =
        {
          Pmo2.Archipelago.default_config with
          migration_period = 6;
          nsga2 = { Ea.Nsga2.default_config with pop_size = 16 };
        };
    }
  in
  let property ratios =
    (Photo.Steady_state.evaluate ~env ~ratios ()).Photo.Steady_state.uptake
  in
  let o = Robustpath.Design.run ~property problem cfg in
  Alcotest.(check bool) "front found" true (List.length o.Robustpath.Design.front >= 3);
  (* The front must span a real uptake/nitrogen trade-off. *)
  let uptakes = List.map Photo.Leaf.uptake_of o.Robustpath.Design.front in
  let nmin = List.fold_left Float.min infinity uptakes in
  let nmax = List.fold_left Float.max neg_infinity uptakes in
  Alcotest.(check bool) "trade-off spans" true (nmax -. nmin > 2.);
  (* Trade-off solutions should show non-trivial robustness, the paper's
     qualitative claim. *)
  Alcotest.(check bool) "some robustness" true
    (o.Robustpath.Design.max_yield.Robustpath.Design.yield_pct > 20.)

let () =
  Alcotest.run "design"
    [
      ( "pipeline",
        [
          Alcotest.test_case "runs" `Quick test_pipeline_runs;
          Alcotest.test_case "mined labels" `Quick test_pipeline_mined_labels;
          Alcotest.test_case "shadow minima extremes" `Quick test_pipeline_shadow_minima_extremes;
          Alcotest.test_case "yields are percentages" `Quick test_pipeline_yields_are_percentages;
          Alcotest.test_case "max yield is max" `Quick test_pipeline_max_yield_is_max;
          Alcotest.test_case "custom property" `Quick test_pipeline_custom_property;
          Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
        ] );
      ("integration", [ Alcotest.test_case "leaf design end-to-end" `Slow test_leaf_integration ]);
    ]
