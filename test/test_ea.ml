(* Tests for variation operators, NSGA-II and MOEA/D. *)

(* Standard test problems *)

let zdt1 n = Moo.Benchmarks.zdt1 ~n

let schaffer = Testkit.Benchmarks.schaffer

let constrained_sphere = Testkit.Benchmarks.constrained_schaffer

(* {1 Operators} *)

let bounds01 n = (Array.make n 0., Array.make n 1.)

let test_sbx_within_bounds () =
  let rng = Numerics.Rng.create 1 in
  let lower, upper = bounds01 5 in
  for _ = 1 to 500 do
    let p1 = Array.init 5 (fun _ -> Numerics.Rng.float rng) in
    let p2 = Array.init 5 (fun _ -> Numerics.Rng.float rng) in
    let c1, c2 = Ea.Operators.sbx_crossover ~eta:15. ~prob:1. ~rng ~lower ~upper p1 p2 in
    Array.iter (fun x -> if x < 0. || x > 1. then Alcotest.failf "c1 out: %g" x) c1;
    Array.iter (fun x -> if x < 0. || x > 1. then Alcotest.failf "c2 out: %g" x) c2
  done

let test_sbx_prob_zero_copies () =
  let rng = Numerics.Rng.create 2 in
  let lower, upper = bounds01 3 in
  let p1 = [| 0.1; 0.5; 0.9 |] and p2 = [| 0.2; 0.6; 0.8 |] in
  let c1, c2 = Ea.Operators.sbx_crossover ~eta:15. ~prob:0. ~rng ~lower ~upper p1 p2 in
  Alcotest.(check bool) "copies parents" true
    (Testkit.Vec.approx_equal c1 p1 && Testkit.Vec.approx_equal c2 p2)

let test_sbx_children_near_parents () =
  (* With a high distribution index, children concentrate near parents. *)
  let rng = Numerics.Rng.create 3 in
  let lower, upper = bounds01 1 in
  let p1 = [| 0.4 |] and p2 = [| 0.6 |] in
  let far = ref 0 in
  for _ = 1 to 1000 do
    let c1, _ = Ea.Operators.sbx_crossover ~eta:50. ~prob:1. ~rng ~lower ~upper p1 p2 in
    if Float.abs (c1.(0) -. 0.5) > 0.3 then incr far
  done;
  Alcotest.(check bool) "mostly near" true (!far < 100)

let test_mutation_within_bounds () =
  let rng = Numerics.Rng.create 4 in
  let lower, upper = bounds01 5 in
  for _ = 1 to 500 do
    let x = Array.init 5 (fun _ -> Numerics.Rng.float rng) in
    let y = Ea.Operators.polynomial_mutation ~eta:20. ~prob:1. ~rng ~lower ~upper x in
    Array.iter (fun v -> if v < 0. || v > 1. then Alcotest.failf "mutant out: %g" v) y
  done

let test_mutation_prob_zero_identity () =
  let rng = Numerics.Rng.create 5 in
  let lower, upper = bounds01 4 in
  let x = [| 0.1; 0.2; 0.3; 0.4 |] in
  let y = Ea.Operators.polynomial_mutation ~eta:20. ~prob:0. ~rng ~lower ~upper x in
  Alcotest.(check bool) "identity" true (Testkit.Vec.approx_equal x y)

let test_mutation_changes_something () =
  let rng = Numerics.Rng.create 6 in
  let lower, upper = bounds01 10 in
  let x = Array.make 10 0.5 in
  let y = Ea.Operators.polynomial_mutation ~eta:20. ~prob:1. ~rng ~lower ~upper x in
  Alcotest.(check bool) "moved" true (not (Testkit.Vec.approx_equal ~tol:1e-15 x y))

(* {1 NSGA-II internals} *)

let sols_of_objs objs =
  Array.map (fun f -> { Moo.Solution.x = [||]; f; v = 0. }) objs

let test_fast_sort_ranks () =
  let pop =
    sols_of_objs
      [| [| 1.; 1. |]; [| 2.; 2. |]; [| 1.; 2. |]; [| 0.5; 3. |]; [| 3.; 3. |] |]
  in
  let ranks = Ea.Nsga2.fast_non_dominated_sort pop in
  Alcotest.(check int) "best rank 0" 0 ranks.(0);
  Alcotest.(check bool) "dominated has higher rank" true (ranks.(1) > 0);
  Alcotest.(check int) "incomparable extreme rank 0" 0 ranks.(3)

let test_fast_sort_all_incomparable () =
  let pop = sols_of_objs [| [| 1.; 3. |]; [| 2.; 2. |]; [| 3.; 1. |] |] in
  let ranks = Ea.Nsga2.fast_non_dominated_sort pop in
  Array.iter (fun r -> Alcotest.(check int) "rank 0" 0 r) ranks

let test_fast_sort_chain () =
  let pop = sols_of_objs [| [| 3.; 3. |]; [| 2.; 2. |]; [| 1.; 1. |] |] in
  let ranks = Ea.Nsga2.fast_non_dominated_sort pop in
  Alcotest.(check (array int)) "chain ranks" [| 2; 1; 0 |] ranks

let test_crowding_extremes_infinite () =
  let pop = sols_of_objs [| [| 1.; 3. |]; [| 2.; 2. |]; [| 3.; 1. |] |] in
  let ranks = Ea.Nsga2.fast_non_dominated_sort pop in
  let d = Ea.Nsga2.crowding_distance pop ranks 0 in
  Alcotest.(check bool) "extremes infinite" true (d.(0) = infinity && d.(2) = infinity);
  Alcotest.(check bool) "middle finite" true (Float.is_finite d.(1))

let test_crowding_constrained_rank () =
  let pop =
    [|
      { Moo.Solution.x = [||]; f = [| 1.; 1. |]; v = 0. };
      { Moo.Solution.x = [||]; f = [| 0.; 0. |]; v = 5. };
    |]
  in
  let ranks = Ea.Nsga2.fast_non_dominated_sort pop in
  Alcotest.(check int) "feasible first" 0 ranks.(0);
  Alcotest.(check bool) "infeasible later" true (ranks.(1) > 0)

(* {1 NSGA-II runs} *)

let test_nsga2_converges_schaffer () =
  let front = Ea.Nsga2.run ~generations:80 ~seed:1 schaffer Ea.Nsga2.default_config in
  Alcotest.(check bool) "non-empty" true (front <> []);
  (* True front: x ∈ [0, 2]; f1 + f2 minimal along it.  All solutions
     should have x within [−0.2, 2.2]. *)
  List.iter
    (fun s ->
      let x = s.Moo.Solution.x.(0) in
      if x < -0.2 || x > 2.2 then Alcotest.failf "off the true front: x=%g" x)
    front

let test_nsga2_zdt1_hypervolume () =
  let front = Ea.Nsga2.run ~generations:150 ~seed:1 (zdt1 10) Ea.Nsga2.default_config in
  let hv = Moo.Hypervolume.of_solutions ~ref_point:[| 1.1; 1.1 |] front in
  (* Theoretical maximum ≈ 0.8767; require decent convergence. *)
  Alcotest.(check bool) (Printf.sprintf "hv=%.4f >= 0.85" hv) true (hv >= 0.85)

let test_nsga2_deterministic () =
  let f1 = Ea.Nsga2.run ~generations:30 ~seed:9 schaffer Ea.Nsga2.default_config in
  let f2 = Ea.Nsga2.run ~generations:30 ~seed:9 schaffer Ea.Nsga2.default_config in
  Alcotest.(check int) "same front size" (List.length f1) (List.length f2);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same objectives" true (Moo.Solution.equal_objectives a b))
    f1 f2

let test_nsga2_seeding () =
  (* Seeding with the known optimum must keep it in the front. *)
  let opt = Moo.Solution.evaluate schaffer [| 0. |] in
  let front =
    Ea.Nsga2.run ~initial:[ opt ] ~generations:5 ~seed:2 schaffer Ea.Nsga2.default_config
  in
  Alcotest.(check bool) "seed survives" true
    (List.exists (fun s -> s.Moo.Solution.f.(0) <= 1e-9) front)

let test_nsga2_constraint_handling () =
  let front =
    Ea.Nsga2.run ~generations:60 ~seed:3 constrained_sphere Ea.Nsga2.default_config
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "feasible front" true (s.Moo.Solution.v <= 1e-9);
      Alcotest.(check bool) "x >= 1" true (s.Moo.Solution.x.(0) >= 1. -. 1e-6))
    front

let test_nsga2_step_and_state () =
  let rng = Numerics.Rng.create 11 in
  let st = Ea.Nsga2.init (zdt1 6) { Ea.Nsga2.default_config with pop_size = 20 } rng in
  Alcotest.(check int) "gen 0" 0 (Ea.Nsga2.snapshot st).Ea.Nsga2.snap_gen;
  Ea.Nsga2.step st 5;
  Alcotest.(check int) "gen 5" 5 (Ea.Nsga2.snapshot st).Ea.Nsga2.snap_gen;
  Alcotest.(check int) "pop size kept" 20 (Array.length (Ea.Nsga2.population st));
  Alcotest.(check bool) "evaluations counted" true (Ea.Nsga2.evaluations st >= 20 * 6)

let test_nsga2_emigrants_from_front () =
  let rng = Numerics.Rng.create 12 in
  let st = Ea.Nsga2.init (zdt1 6) { Ea.Nsga2.default_config with pop_size = 20 } rng in
  Ea.Nsga2.step st 10;
  let em = Ea.Nsga2.select_emigrants st 3 in
  Alcotest.(check bool) "at most 3" true (List.length em <= 3);
  let front = Ea.Nsga2.front st in
  List.iter
    (fun e ->
      Alcotest.(check bool) "emigrant from first front" true
        (List.exists (fun s -> Moo.Solution.equal_objectives s e) front))
    em

let test_nsga2_inject_improves () =
  let rng = Numerics.Rng.create 13 in
  let st = Ea.Nsga2.init schaffer { Ea.Nsga2.default_config with pop_size = 20 } rng in
  let opt = Moo.Solution.evaluate schaffer [| 1. |] in
  Ea.Nsga2.inject st [ opt ];
  let front = Ea.Nsga2.front st in
  Alcotest.(check bool) "injected point survives selection" true
    (List.exists (fun s -> Moo.Solution.equal_objectives s opt) front)

let test_nsga2_custom_variation () =
  (* A variation that always returns the optimum must fill the front. *)
  let vary _rng _p1 _p2 = ([| 1.0 |], [| 1.2 |]) in
  let cfg = { Ea.Nsga2.default_config with pop_size = 10; variation = Some vary } in
  let front = Ea.Nsga2.run ~generations:3 ~seed:4 schaffer cfg in
  Alcotest.(check bool) "custom variation used" true
    (List.exists (fun s -> Float.abs (s.Moo.Solution.x.(0) -. 1.0) < 1e-9) front)

(* {1 MOEA/D} *)

let moead_run ~generations ~seed problem config =
  let st = Ea.Moead.init problem config (Numerics.Rng.create seed) in
  Ea.Moead.step st generations;
  Ea.Moead.front st

let test_moead_converges_schaffer () =
  let front = moead_run ~generations:80 ~seed:1 schaffer { Ea.Moead.pop_size = 100 } in
  Alcotest.(check bool) "non-empty" true (front <> []);
  List.iter
    (fun s ->
      let x = s.Moo.Solution.x.(0) in
      if x < -0.3 || x > 2.3 then Alcotest.failf "off front: x=%g" x)
    front

let test_moead_zdt1_quality () =
  let front = moead_run ~generations:150 ~seed:1 (zdt1 10) { Ea.Moead.pop_size = 100 } in
  let hv = Moo.Hypervolume.of_solutions ~ref_point:[| 1.1; 1.1 |] front in
  Alcotest.(check bool) (Printf.sprintf "hv=%.4f >= 0.85" hv) true (hv >= 0.85)

let test_moead_front_bounded_by_population () =
  let cfg = { Ea.Moead.pop_size = 30 } in
  let front = moead_run ~generations:50 ~seed:2 (zdt1 6) cfg in
  Alcotest.(check bool) "front <= pop" true (List.length front <= 30)

let test_moead_deterministic () =
  let f1 = moead_run ~generations:30 ~seed:5 schaffer { Ea.Moead.pop_size = 100 } in
  let f2 = moead_run ~generations:30 ~seed:5 schaffer { Ea.Moead.pop_size = 100 } in
  Alcotest.(check int) "same size" (List.length f1) (List.length f2)

let test_moead_step_state () =
  let rng = Numerics.Rng.create 14 in
  let st = Ea.Moead.init (zdt1 6) { Ea.Moead.pop_size = 20 } rng in
  let e0 = Ea.Moead.evaluations st in
  Ea.Moead.step st 3;
  Alcotest.(check int) "evals accounted" (e0 + (3 * 20)) (Ea.Moead.evaluations st)

(* {1 Properties} *)

let prop_sbx_mean_preserved =
  (* SBX is mean-preserving in expectation; check the average child mean
     stays near the parent mean. *)
  QCheck.Test.make ~name:"sbx roughly mean preserving" ~count:30
    QCheck.(pair (int_bound 100000) (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (seed, (a, b)) ->
      let rng = Numerics.Rng.create seed in
      let lower = [| 0. |] and upper = [| 1. |] in
      let parents_mean = (a +. b) /. 2. in
      let acc = ref 0. in
      let n = 400 in
      for _ = 1 to n do
        let c1, c2 =
          Ea.Operators.sbx_crossover ~eta:15. ~prob:1. ~rng ~lower ~upper [| a |] [| b |]
        in
        acc := !acc +. ((c1.(0) +. c2.(0)) /. 2.)
      done;
      Float.abs ((!acc /. float_of_int n) -. parents_mean) < 0.12)

let prop_ranks_consistent_with_dominance =
  QCheck.Test.make ~name:"dominator never ranked worse" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 2 10)
              (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun pts ->
      let pop =
        Array.of_list
          (List.map (fun (a, b) -> { Moo.Solution.x = [||]; f = [| a; b |]; v = 0. }) pts)
      in
      let ranks = Ea.Nsga2.fast_non_dominated_sort pop in
      let ok = ref true in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i <> j && Moo.Dominance.dominates a b && ranks.(i) >= ranks.(j) then
                ok := false)
            pop)
        pop;
      !ok)

(* {1 SPEA2} *)

let test_spea2_fitness_nondominated_below_one () =
  let sols =
    [|
      { Moo.Solution.x = [||]; f = [| 1.; 3. |]; v = 0. };
      { Moo.Solution.x = [||]; f = [| 3.; 1. |]; v = 0. };
      { Moo.Solution.x = [||]; f = [| 4.; 4. |]; v = 0. };
    |]
  in
  let fit = Ea.Spea2.fitness sols in
  Alcotest.(check bool) "nd below 1" true (fit.(0) < 1. && fit.(1) < 1.);
  Alcotest.(check bool) "dominated above 1" true (fit.(2) >= 1.)

let test_spea2_fitness_strength_accumulates () =
  (* A chain: the worst is dominated by both others and must have the
     highest raw fitness. *)
  let sols =
    [|
      { Moo.Solution.x = [||]; f = [| 1.; 1. |]; v = 0. };
      { Moo.Solution.x = [||]; f = [| 2.; 2. |]; v = 0. };
      { Moo.Solution.x = [||]; f = [| 3.; 3. |]; v = 0. };
    |]
  in
  let fit = Ea.Spea2.fitness sols in
  Alcotest.(check bool) "ordering" true (fit.(0) < fit.(1) && fit.(1) < fit.(2))

let spea2_run ?initial ~generations ~seed problem config =
  let st = Ea.Spea2.init ?initial problem config (Numerics.Rng.create seed) in
  Ea.Spea2.step st generations;
  Ea.Spea2.front st

let test_spea2_converges_schaffer () =
  let front = spea2_run ~generations:60 ~seed:1 schaffer Ea.Spea2.default_config in
  Alcotest.(check bool) "non-empty" true (front <> []);
  List.iter
    (fun s ->
      let x = s.Moo.Solution.x.(0) in
      if x < -0.3 || x > 2.3 then Alcotest.failf "off front: x=%g" x)
    front

let test_spea2_zdt1_quality () =
  let cfg = { Ea.Spea2.default_config with pop_size = 60; archive_size = 60 } in
  let front = spea2_run ~generations:120 ~seed:1 (zdt1 8) cfg in
  let hv = Moo.Hypervolume.of_solutions ~ref_point:[| 1.1; 1.1 |] front in
  Alcotest.(check bool) (Printf.sprintf "hv=%.4f >= 0.82" hv) true (hv >= 0.82)

let test_spea2_archive_bounded () =
  let cfg = { Ea.Spea2.default_config with pop_size = 20; archive_size = 15 } in
  let rng = Numerics.Rng.create 2 in
  let st = Ea.Spea2.init (zdt1 6) cfg rng in
  Ea.Spea2.step st 10;
  Alcotest.(check bool) "archive within bound" true
    (Array.length (Ea.Spea2.snapshot st).Ea.Spea2.snap_arch <= 15)

let test_spea2_truncation_keeps_extremes () =
  (* Feed a dense line front through environmental selection: the two
     extreme points must survive truncation. *)
  let cfg = { Ea.Spea2.default_config with pop_size = 40; archive_size = 10 } in
  let rng = Numerics.Rng.create 3 in
  let line =
    List.init 40 (fun i ->
        let t = float_of_int i /. 39. in
        { Moo.Solution.x = [| t |]; f = [| t; 1. -. t |]; v = 0. })
  in
  let st = Ea.Spea2.init ~initial:line (zdt1 6) cfg rng in
  ignore st;
  (* The init path evaluates random solutions for the rest; instead test
     truncation directly through inject on a fresh state. *)
  let st2 = Ea.Spea2.init (zdt1 6) cfg rng in
  Ea.Spea2.inject st2 line;
  let arch = (Ea.Spea2.snapshot st2).Ea.Spea2.snap_arch in
  Alcotest.(check bool) "bounded" true (Array.length arch <= 10);
  let f0s = Array.map (fun s -> s.Moo.Solution.f.(0)) arch in
  Alcotest.(check bool) "extremes kept" true
    (Array.exists (fun f -> f <= 0.026) f0s && Array.exists (fun f -> f >= 0.974) f0s)

let test_spea2_deterministic () =
  let a = spea2_run ~generations:20 ~seed:5 schaffer Ea.Spea2.default_config in
  let b = spea2_run ~generations:20 ~seed:5 schaffer Ea.Spea2.default_config in
  Alcotest.(check int) "same size" (List.length a) (List.length b)

let test_spea2_seeding () =
  let opt = Moo.Solution.evaluate schaffer [| 1. |] in
  let front = spea2_run ~initial:[ opt ] ~generations:3 ~seed:6 schaffer Ea.Spea2.default_config in
  Alcotest.(check bool) "seed region present" true
    (List.exists (fun s -> Float.abs (s.Moo.Solution.x.(0) -. 1.) < 0.5) front)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* {1 GA} *)

let test_ga_sphere () =
  (* Maximize -(x-1)² - (y+2)²: optimum at (1, -2) with value 0. *)
  let f x = -.((x.(0) -. 1.) ** 2.) -. ((x.(1) +. 2.) ** 2.) in
  let r =
    Ea.Ga.maximize ~generations:80 ~seed:1 ~lower:[| -5.; -5. |] ~upper:[| 5.; 5. |] f
  in
  Alcotest.(check bool) (Printf.sprintf "best %.4f near 0" r.Ea.Ga.best_f) true
    (r.Ea.Ga.best_f > -1e-3);
  check_float ~tol:0.05 "x*" 1. r.Ea.Ga.best_x.(0);
  check_float ~tol:0.05 "y*" (-2.) r.Ea.Ga.best_x.(1)

let test_ga_history_monotone () =
  let f x = -.(x.(0) ** 2.) in
  let r = Ea.Ga.maximize ~generations:30 ~seed:2 ~lower:[| -3. |] ~upper:[| 3. |] f in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "best-so-far never decreases" true (monotone r.Ea.Ga.history);
  Alcotest.(check int) "history length" 30 (List.length r.Ea.Ga.history)

let test_ga_elitism_preserves_best () =
  (* A rugged function: with elitism, the final best must equal the
     maximum of the history. *)
  let f x = sin (10. *. x.(0)) +. (0.1 *. x.(0)) in
  let r = Ea.Ga.maximize ~generations:40 ~seed:3 ~lower:[| 0. |] ~upper:[| 5. |] f in
  let hist_max = List.fold_left Float.max neg_infinity r.Ea.Ga.history in
  check_float ~tol:1e-9 "no regression" hist_max r.Ea.Ga.best_f

let test_ga_deterministic () =
  let f x = -.Testkit.Vec.norm2 x in
  let a = Ea.Ga.maximize ~generations:20 ~seed:5 ~lower:(Array.make 3 (-1.)) ~upper:(Array.make 3 1.) f in
  let b = Ea.Ga.maximize ~generations:20 ~seed:5 ~lower:(Array.make 3 (-1.)) ~upper:(Array.make 3 1.) f in
  check_float "same result" a.Ea.Ga.best_f b.Ea.Ga.best_f

let test_ga_evaluation_budget () =
  let count = ref 0 in
  let f _ = incr count; 0. in
  let r = Ea.Ga.maximize ~generations:10 ~seed:6 ~lower:[| 0. |] ~upper:[| 1. |] f in
  Alcotest.(check int) "count matches" !count r.Ea.Ga.evaluations

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "ea"
    [
      ( "operators",
        [
          Alcotest.test_case "sbx within bounds" `Quick test_sbx_within_bounds;
          Alcotest.test_case "sbx prob 0 copies" `Quick test_sbx_prob_zero_copies;
          Alcotest.test_case "sbx concentration" `Quick test_sbx_children_near_parents;
          Alcotest.test_case "mutation within bounds" `Quick test_mutation_within_bounds;
          Alcotest.test_case "mutation prob 0 identity" `Quick test_mutation_prob_zero_identity;
          Alcotest.test_case "mutation moves" `Quick test_mutation_changes_something;
        ] );
      ( "nsga2-internals",
        [
          Alcotest.test_case "rank structure" `Quick test_fast_sort_ranks;
          Alcotest.test_case "all incomparable" `Quick test_fast_sort_all_incomparable;
          Alcotest.test_case "dominance chain" `Quick test_fast_sort_chain;
          Alcotest.test_case "crowding extremes" `Quick test_crowding_extremes_infinite;
          Alcotest.test_case "constrained ranking" `Quick test_crowding_constrained_rank;
        ] );
      ( "nsga2",
        [
          Alcotest.test_case "schaffer convergence" `Quick test_nsga2_converges_schaffer;
          Alcotest.test_case "zdt1 hypervolume" `Slow test_nsga2_zdt1_hypervolume;
          Alcotest.test_case "deterministic" `Quick test_nsga2_deterministic;
          Alcotest.test_case "seeding" `Quick test_nsga2_seeding;
          Alcotest.test_case "constraint handling" `Quick test_nsga2_constraint_handling;
          Alcotest.test_case "step and state" `Quick test_nsga2_step_and_state;
          Alcotest.test_case "emigrants from front" `Quick test_nsga2_emigrants_from_front;
          Alcotest.test_case "inject improves" `Quick test_nsga2_inject_improves;
          Alcotest.test_case "custom variation" `Quick test_nsga2_custom_variation;
        ] );
      ( "moead",
        [
          Alcotest.test_case "schaffer convergence" `Quick test_moead_converges_schaffer;
          Alcotest.test_case "zdt1 quality" `Slow test_moead_zdt1_quality;
          Alcotest.test_case "front bounded by population" `Quick test_moead_front_bounded_by_population;
          Alcotest.test_case "deterministic" `Quick test_moead_deterministic;
          Alcotest.test_case "step accounting" `Quick test_moead_step_state;
        ] );
      ("properties", q [ prop_sbx_mean_preserved; prop_ranks_consistent_with_dominance ]);
      ( "spea2",
        [
          Alcotest.test_case "fitness nd < 1" `Quick test_spea2_fitness_nondominated_below_one;
          Alcotest.test_case "fitness ordering" `Quick test_spea2_fitness_strength_accumulates;
          Alcotest.test_case "schaffer convergence" `Quick test_spea2_converges_schaffer;
          Alcotest.test_case "zdt1 quality" `Slow test_spea2_zdt1_quality;
          Alcotest.test_case "archive bounded" `Quick test_spea2_archive_bounded;
          Alcotest.test_case "truncation keeps extremes" `Quick test_spea2_truncation_keeps_extremes;
          Alcotest.test_case "deterministic" `Quick test_spea2_deterministic;
          Alcotest.test_case "seeding" `Quick test_spea2_seeding;
        ] );
      ( "ga",
        [
          Alcotest.test_case "sphere optimum" `Quick test_ga_sphere;
          Alcotest.test_case "history monotone" `Quick test_ga_history_monotone;
          Alcotest.test_case "elitism" `Quick test_ga_elitism_preserves_best;
          Alcotest.test_case "deterministic" `Quick test_ga_deterministic;
          Alcotest.test_case "evaluation accounting" `Quick test_ga_evaluation_budget;
        ] );
    ]
