(* Tests for the PMO2 archipelago. *)

let zdt1 n = Moo.Benchmarks.zdt1 ~n

let schaffer = Testkit.Benchmarks.schaffer

(* {1 Topology} *)

let test_all_to_all_edges () =
  let es = Pmo2.Topology.edges Pmo2.Topology.All_to_all ~n:3 in
  Alcotest.(check int) "n(n-1) edges" 6 (List.length es);
  Alcotest.(check bool) "no self loops" true (List.for_all (fun (a, b) -> a <> b) es)

let test_ring_edges () =
  let es = Pmo2.Topology.edges Pmo2.Topology.Ring ~n:4 in
  Alcotest.(check int) "n edges" 4 (List.length es);
  Alcotest.(check bool) "wraps" true (List.mem (3, 0) es)

let test_ring_single_island () =
  Alcotest.(check int) "no edges" 0 (List.length (Pmo2.Topology.edges Pmo2.Topology.Ring ~n:1))

let test_star_edges () =
  let es = Pmo2.Topology.edges Pmo2.Topology.Star ~n:4 in
  Alcotest.(check int) "2(n-1) edges" 6 (List.length es);
  Alcotest.(check bool) "hub involved everywhere" true
    (List.for_all (fun (a, b) -> a = 0 || b = 0) es)

let test_custom_edges () =
  let es = Pmo2.Topology.edges (Pmo2.Topology.Custom [ (0, 1) ]) ~n:2 in
  Alcotest.(check int) "as given" 1 (List.length es)

(* {1 Archipelago} *)

let small_config =
  {
    Pmo2.Archipelago.default_config with
    migration_period = 10;
    nsga2 = { Ea.Nsga2.default_config with pop_size = 20 };
  }

let test_paper_configuration () =
  let c = Pmo2.Archipelago.default_config in
  Alcotest.(check int) "two islands" 2 c.Pmo2.Archipelago.n_islands;
  Alcotest.(check int) "period 200" 200 c.Pmo2.Archipelago.migration_period;
  Alcotest.(check (float 1e-12)) "p=0.5" 0.5 c.Pmo2.Archipelago.migration_prob;
  (match c.Pmo2.Archipelago.topology with
   | Pmo2.Topology.All_to_all -> ()
   | _ -> Alcotest.fail "broadcast expected")

let test_run_produces_front () =
  let r = Pmo2.Archipelago.run ~seed:1 ~generations:30 schaffer small_config in
  Alcotest.(check bool) "front non-empty" true (r.Pmo2.Archipelago.front <> []);
  Alcotest.(check int) "two island fronts" 2 (List.length r.per_island);
  Alcotest.(check bool) "evaluations counted" true (r.evaluations > 0)

let test_run_deterministic () =
  let a = Pmo2.Archipelago.run ~seed:7 ~generations:30 schaffer small_config in
  let b = Pmo2.Archipelago.run ~seed:7 ~generations:30 schaffer small_config in
  Alcotest.(check int) "same front size"
    (List.length a.Pmo2.Archipelago.front)
    (List.length b.Pmo2.Archipelago.front)

let test_front_mutually_nondominated () =
  let r = Pmo2.Archipelago.run ~seed:2 ~generations:30 (zdt1 6) small_config in
  let front = r.Pmo2.Archipelago.front in
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a != b && Moo.Dominance.dominates a b then Alcotest.fail "dominated member")
        front)
    front

let test_islands_step () =
  let st = Pmo2.Archipelago.init ~seed:3 (zdt1 6) small_config in
  Alcotest.(check int) "no generations yet" 0 (Pmo2.Archipelago.generations_done st);
  Pmo2.Archipelago.step_epoch st;
  Alcotest.(check int) "one epoch" 10 (Pmo2.Archipelago.generations_done st);
  Pmo2.Archipelago.step_epoch st;
  Alcotest.(check int) "two epochs" 20 (Pmo2.Archipelago.generations_done st)

let test_migration_beats_isolation () =
  (* On ZDT1, the merged migrating archipelago should not be worse than
     the same total budget with migration probability 0 (statistically;
     fixed seeds make this a regression check, not a proof). *)
  let budget = 60 in
  let migrating = { small_config with migration_prob = 1.0; migration_period = 10 } in
  let isolated = { small_config with migration_prob = 0.0; migration_period = 10 } in
  let hv cfg =
    let r = Pmo2.Archipelago.run ~seed:5 ~generations:budget (zdt1 8) cfg in
    Moo.Hypervolume.of_solutions ~ref_point:[| 1.1; 1.1 |] r.Pmo2.Archipelago.front
  in
  let hm = hv migrating and hi = hv isolated in
  Alcotest.(check bool)
    (Printf.sprintf "migration %.4f >= isolation %.4f - 0.02" hm hi)
    true
    (hm >= hi -. 0.02)

let test_seeded_archipelago () =
  let opt = Moo.Solution.evaluate schaffer [| 0.5 |] in
  let r =
    Pmo2.Archipelago.run ~seed:6 ~initial:[ opt ] ~generations:10 schaffer small_config
  in
  Alcotest.(check bool) "seed's region covered" true
    (List.exists (fun s -> s.Moo.Solution.f.(0) <= 0.3) r.Pmo2.Archipelago.front)

let test_four_islands_ring () =
  let cfg =
    { small_config with Pmo2.Archipelago.n_islands = 4; topology = Pmo2.Topology.Ring }
  in
  let r = Pmo2.Archipelago.run ~seed:8 ~generations:20 schaffer cfg in
  Alcotest.(check int) "four fronts" 4 (List.length r.Pmo2.Archipelago.per_island)

let test_parallel_identical_to_sequential () =
  (* Islands only interact at migration epochs, so evolving them on
     separate domains must give bit-identical fronts. *)
  let seq = Pmo2.Archipelago.run ~seed:11 ~generations:40 (zdt1 8) small_config in
  let par =
    Pmo2.Archipelago.run ~seed:11 ~generations:40 (zdt1 8)
      { small_config with Pmo2.Archipelago.parallel = true }
  in
  let objs r =
    List.sort compare
      (List.map (fun s -> (s.Moo.Solution.f.(0), s.Moo.Solution.f.(1))) r.Pmo2.Archipelago.front)
  in
  Alcotest.(check bool) "identical fronts" true (objs seq = objs par)

(* {1 Heterogeneous islands} *)

let test_island_wrappers () =
  let rng = Numerics.Rng.create 7 in
  let n = Pmo2.Island.nsga2 schaffer { Ea.Nsga2.default_config with pop_size = 12 } rng in
  let s = Pmo2.Island.spea2 schaffer { Ea.Spea2.default_config with pop_size = 12; archive_size = 12 } rng in
  Alcotest.(check string) "nsga2 name" "nsga2" (Pmo2.Island.name n);
  Alcotest.(check string) "spea2 name" "spea2" (Pmo2.Island.name s);
  Pmo2.Island.step n 3;
  Pmo2.Island.step s 3;
  Alcotest.(check bool) "fronts non-empty" true
    (Pmo2.Island.front n <> [] && Pmo2.Island.front s <> []);
  Alcotest.(check bool) "evaluations counted" true
    (Pmo2.Island.evaluations n > 0 && Pmo2.Island.evaluations s > 0)

let test_mixed_archipelago () =
  let cfg =
    {
      Pmo2.Archipelago.default_config with
      migration_period = 10;
      algorithms =
        [
          Pmo2.Archipelago.Nsga2 { Ea.Nsga2.default_config with pop_size = 16 };
          Pmo2.Archipelago.Spea2
            { Ea.Spea2.default_config with pop_size = 16; archive_size = 16 };
        ];
    }
  in
  let st = Pmo2.Archipelago.init ~seed:8 schaffer cfg in
  Alcotest.(check (list string)) "one of each" [ "nsga2"; "spea2" ]
    (Pmo2.Archipelago.island_names st);
  Pmo2.Archipelago.step_epoch st;
  let r = Pmo2.Archipelago.run ~seed:8 ~generations:30 schaffer cfg in
  Alcotest.(check bool) "mixed front" true (r.Pmo2.Archipelago.front <> [])

let test_mixed_zdt1_quality () =
  let cfg =
    {
      Pmo2.Archipelago.default_config with
      migration_period = 15;
      algorithms =
        [
          Pmo2.Archipelago.Nsga2 { Ea.Nsga2.default_config with pop_size = 24 };
          Pmo2.Archipelago.Spea2
            { Ea.Spea2.default_config with pop_size = 24; archive_size = 24 };
        ];
    }
  in
  let r = Pmo2.Archipelago.run ~seed:9 ~generations:90 (zdt1 8) cfg in
  let hv = Moo.Hypervolume.of_solutions ~ref_point:[| 1.1; 1.1 |] r.Pmo2.Archipelago.front in
  Alcotest.(check bool) (Printf.sprintf "hv=%.4f" hv) true (hv >= 0.82)

let () =
  Alcotest.run "pmo2"
    [
      ( "topology",
        [
          Alcotest.test_case "all-to-all" `Quick test_all_to_all_edges;
          Alcotest.test_case "ring" `Quick test_ring_edges;
          Alcotest.test_case "ring n=1" `Quick test_ring_single_island;
          Alcotest.test_case "star" `Quick test_star_edges;
          Alcotest.test_case "custom" `Quick test_custom_edges;
        ] );
      ( "archipelago",
        [
          Alcotest.test_case "paper configuration" `Quick test_paper_configuration;
          Alcotest.test_case "produces front" `Quick test_run_produces_front;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "front mutually nondominated" `Quick test_front_mutually_nondominated;
          Alcotest.test_case "epoch stepping" `Quick test_islands_step;
          Alcotest.test_case "migration vs isolation" `Slow test_migration_beats_isolation;
          Alcotest.test_case "seeding" `Quick test_seeded_archipelago;
          Alcotest.test_case "four islands ring" `Quick test_four_islands_ring;
          Alcotest.test_case "parallel = sequential" `Slow test_parallel_identical_to_sequential;
        ] );
      ( "islands",
        [
          Alcotest.test_case "wrappers" `Quick test_island_wrappers;
          Alcotest.test_case "mixed archipelago" `Quick test_mixed_archipelago;
          Alcotest.test_case "mixed zdt1 quality" `Slow test_mixed_zdt1_quality;
        ] );
    ]
