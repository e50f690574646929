(* Tests for the multi-objective core: dominance, archive, hypervolume,
   coverage, mining, scalarization. *)

let sol ?(v = 0.) f = { Moo.Solution.x = [||]; f; v }

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* {1 Problem} *)

let sphere2 =
  Moo.Problem.make ~name:"sphere2" ~n_obj:2 ~lower:[| -1.; -1. |] ~upper:[| 1.; 1. |]
    (fun x -> [| x.(0) ** 2.; x.(1) ** 2. |])

let test_problem_clip () =
  let c = Moo.Problem.clip sphere2 [| -5.; 5. |] in
  Alcotest.(check bool) "clipped" true (c.(0) = -1. && c.(1) = 1.)

let test_problem_random () =
  let rng = Numerics.Rng.create 1 in
  for _ = 1 to 100 do
    let x = Moo.Problem.random_solution sphere2 rng in
    Array.iter (fun xi -> if xi < -1. || xi > 1. then Alcotest.fail "outside box") x
  done

let test_problem_violation_default () =
  check_float "no violation fn" 0. (Moo.Problem.violation_of sphere2 [| 0.; 0. |])

let test_solution_evaluate () =
  let s = Moo.Solution.evaluate sphere2 [| 0.5; -0.5 |] in
  check_float "f0" 0.25 s.Moo.Solution.f.(0);
  check_float "no violation" 0. s.Moo.Solution.v

(* {1 Dominance} *)

(* Two feasible solutions compare by Pareto dominance of their objectives. *)
let compare_objectives a b = Moo.Dominance.constrained (sol a) (sol b)

let test_dominance_basic () =
  let open Moo.Dominance in
  Alcotest.(check bool) "strict" true (compare_objectives [| 1.; 1. |] [| 2.; 2. |] = Dominates);
  Alcotest.(check bool) "dominated" true (compare_objectives [| 2.; 2. |] [| 1.; 1. |] = Dominated);
  Alcotest.(check bool) "incomparable" true
    (compare_objectives [| 1.; 2. |] [| 2.; 1. |] = Incomparable);
  Alcotest.(check bool) "equal" true (compare_objectives [| 1.; 2. |] [| 1.; 2. |] = Equal)

let test_dominance_weak () =
  let open Moo.Dominance in
  (* Better in one objective, equal in the other: still dominates. *)
  Alcotest.(check bool) "weak dominance" true
    (compare_objectives [| 1.; 2. |] [| 1.; 3. |] = Dominates)

let test_constrained_dominance () =
  let open Moo.Dominance in
  let feasible = sol [| 5.; 5. |] in
  let infeasible = sol ~v:1. [| 0.; 0. |] in
  Alcotest.(check bool) "feasible beats infeasible" true (constrained feasible infeasible = Dominates);
  let worse = sol ~v:2. [| 0.; 0. |] in
  Alcotest.(check bool) "less violating wins" true (constrained infeasible worse = Dominates)

let test_non_dominated_filter () =
  let sols = [ sol [| 1.; 3. |]; sol [| 2.; 2. |]; sol [| 3.; 1. |]; sol [| 3.; 3. |] ] in
  let nd = Moo.Dominance.non_dominated sols in
  Alcotest.(check int) "three survive" 3 (List.length nd)

let test_non_dominated_dedup () =
  let sols = [ sol [| 1.; 1. |]; sol [| 1.; 1. |] ] in
  Alcotest.(check int) "duplicates collapse" 1 (List.length (Moo.Dominance.non_dominated sols))

(* {1 Archive} *)

let test_archive_keeps_non_dominated () =
  let a = Moo.Archive.create () in
  Moo.Archive.add_all a [ sol [| 1.; 3. |]; sol [| 3.; 1. |] ];
  Alcotest.(check int) "incomparable both kept" 2 (Moo.Archive.size a);
  Moo.Archive.add_all a [ sol [| 4.; 4. |] ];
  Alcotest.(check int) "dominated rejected" 2 (Moo.Archive.size a)

let test_archive_removes_dominated () =
  let a = Moo.Archive.create () in
  (* [| 3.; 3. |] is rejected; [| 1.; 1. |] then dominates [| 2.; 2. |]. *)
  Moo.Archive.add_all a [ sol [| 2.; 2. |]; sol [| 3.; 3. |]; sol [| 1.; 1. |] ];
  Alcotest.(check int) "only the dominator remains" 1 (Moo.Archive.size a)

(* {1 Hypervolume} *)

let test_hv_single_point () =
  check_float "unit square" 1.
    (Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] [ [| 0.; 0. |] ])

let test_hv_staircase () =
  (* Two points forming a staircase. *)
  let hv = Moo.Hypervolume.compute ~ref_point:[| 2.; 2. |] [ [| 0.; 1. |]; [| 1.; 0. |] ] in
  (* Union of [0,2]×[1,2] and [1,2]×[0,2]: 2 + 2 - 1 = 3. *)
  check_float "staircase" 3. hv

let test_hv_dominated_ignored () =
  let base = Moo.Hypervolume.compute ~ref_point:[| 2.; 2. |] [ [| 0.; 0. |] ] in
  let more =
    Moo.Hypervolume.compute ~ref_point:[| 2.; 2. |] [ [| 0.; 0. |]; [| 1.; 1. |] ]
  in
  check_float "dominated adds nothing" base more

let test_hv_outside_ref_ignored () =
  let hv = Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] [ [| 2.; 0. |] ] in
  check_float "outside ref" 0. hv

let test_hv_3d_cube () =
  check_float "unit cube" 1.
    (Moo.Hypervolume.compute ~ref_point:[| 1.; 1.; 1. |] [ [| 0.; 0.; 0. |] ])

let test_hv_3d_two_boxes () =
  (* Points (0,0,0.5) and (0.5,0.5,0): volumes 0.5 and 0.25 overlapping
     0.25·0.5 = 0.125 → union 0.625. *)
  let hv =
    Moo.Hypervolume.compute ~ref_point:[| 1.; 1.; 1. |]
      [ [| 0.; 0.; 0.5 |]; [| 0.5; 0.5; 0. |] ]
  in
  check_float ~tol:1e-9 "3d union" 0.625 hv

let test_hv_normalized () =
  let hv =
    Moo.Hypervolume.normalized ~ref_point:[| 10.; 10. |] ~ideal:[| 0.; 0. |]
      [ [| 0.; 0. |] ]
  in
  check_float "normalized full" 1. hv

(* The exclusive contribution of each point: the volume lost when it alone
   is removed. *)
let contributions ~ref_point points =
  let total = Moo.Hypervolume.compute ~ref_point points in
  List.mapi
    (fun i p ->
      (p, total -. Moo.Hypervolume.compute ~ref_point (List.filteri (fun j _ -> j <> i) points)))
    points

let test_hv_contributions () =
  (* Staircase of two points plus one dominated: contributions must be the
     non-overlapping rectangles, and 0 for the dominated point. *)
  let pts = [ [| 0.; 1. |]; [| 1.; 0. |]; [| 1.5; 1.5 |] ] in
  match contributions ~ref_point:[| 2.; 2. |] pts with
  | [ (_, c1); (_, c2); (_, c3) ] ->
    (* Each extreme point exclusively owns a 1x2 strip minus the 1x1
       overlap core: union 3, removing one leaves 2 → contribution 1. *)
    check_float "first strip" 1. c1;
    check_float "second strip" 1. c2;
    check_float "dominated contributes 0" 0. c3
  | _ -> Alcotest.fail "shape"

let test_hv_contributions_sum_bound () =
  (* Contributions never exceed the total volume. *)
  let pts = [ [| 0.2; 0.7 |]; [| 0.5; 0.4 |]; [| 0.8; 0.1 |] ] in
  let total = Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] pts in
  let sum =
    List.fold_left (fun acc (_, c) -> acc +. c) 0.
      (contributions ~ref_point:[| 1.; 1. |] pts)
  in
  Alcotest.(check bool) "sum <= total" true (sum <= total +. 1e-12)

let test_hv_monotone_in_points () =
  let pts = [ [| 0.2; 0.8 |]; [| 0.5; 0.5 |] ] in
  let hv1 = Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] pts in
  let hv2 = Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] ([| 0.8; 0.1 |] :: pts) in
  Alcotest.(check bool) "adding a point cannot shrink hv" true (hv2 >= hv1)

(* Degenerate fronts — the shapes the archipelago's per-epoch observer can
   hand the hypervolume in early epochs (tiny archives, repeated points,
   points that touch the fixed reference). *)

let test_hv_duplicate_points () =
  (* A duplicated point must count once, not twice. *)
  let once = Moo.Hypervolume.compute ~ref_point:[| 2.; 2. |] [ [| 1.; 1. |] ] in
  let twice =
    Moo.Hypervolume.compute ~ref_point:[| 2.; 2. |] [ [| 1.; 1. |]; [| 1.; 1. |] ]
  in
  check_float "duplicate counted once" once twice;
  check_float "value" 1. twice

let test_hv_point_on_ref_boundary () =
  (* A point with one coordinate equal to the reference spans a degenerate
     (zero-width) box in that dimension: volume 0, and it must not poison
     the rest of the front. *)
  check_float "on boundary alone" 0.
    (Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] [ [| 1.; 0. |] ]);
  check_float "boundary point adds nothing" 0.25
    (Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] [ [| 1.; 0. |]; [| 0.5; 0.5 |] ])

let test_hv_point_at_ref () =
  (* The reference point itself dominates no volume. *)
  check_float "at ref" 0. (Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] [ [| 1.; 1. |] ])

(* {1 Coverage} *)

let test_coverage_disjoint_fronts () =
  let f1 = [ sol [| 1.; 4. |]; sol [| 2.; 3. |] ] in
  let f2 = [ sol [| 3.; 2. |]; sol [| 4.; 1. |] ] in
  let union = Moo.Coverage.union_front [ f1; f2 ] in
  Alcotest.(check int) "union keeps all" 4 (List.length union);
  check_float "gp f1" 0.5 (Moo.Coverage.gp f1 union);
  check_float "rp f1" 1.0 (Moo.Coverage.rp f1 union)

let test_coverage_dominating_front () =
  let winner = [ sol [| 0.; 0. |] ] in
  let loser = [ sol [| 1.; 1. |]; sol [| 2.; 0.5 |] ] in
  let union = Moo.Coverage.union_front [ winner; loser ] in
  check_float "winner gp" 1.0 (Moo.Coverage.gp winner union);
  check_float "loser rp" 0.0 (Moo.Coverage.rp loser union);
  check_float "loser gp" 0.0 (Moo.Coverage.gp loser union)

let test_coverage_analyze () =
  let f1 = [ sol [| 1.; 2. |] ] and f2 = [ sol [| 2.; 1. |] ] in
  let union = Moo.Coverage.union_front [ f1; f2 ] in
  Alcotest.(check int) "union keeps both" 2 (List.length union);
  check_float "gp each" 0.5 (Moo.Coverage.gp f1 union);
  check_float "rp each" 1.0 (Moo.Coverage.rp f2 union)

(* {1 Mine} *)

let line_front k =
  List.init k (fun i ->
      let t = float_of_int i /. float_of_int (k - 1) in
      sol [| t; 1. -. t |])

let test_mine_ideal_nadir () =
  let front = line_front 5 in
  let ideal = Moo.Mine.ideal_point front in
  let nadir = Moo.Mine.nadir_point front in
  Alcotest.(check bool) "ideal" true (ideal.(0) = 0. && ideal.(1) = 0.);
  Alcotest.(check bool) "nadir" true (nadir.(0) = 1. && nadir.(1) = 1.)

let test_mine_closest_to_ideal () =
  let front = line_front 11 in
  let c = Moo.Mine.closest_to_ideal front in
  (* On the symmetric line the middle point is closest to (0,0). *)
  check_float "middle" 0.5 c.Moo.Solution.f.(0)

let test_mine_closest_respects_normalization () =
  (* With wildly different scales, normalization matters. *)
  let front = [ sol [| 0.; 1000. |]; sol [| 1.; 500. |]; sol [| 2.; 0. |] ] in
  let c = Moo.Mine.closest_to_ideal front in
  check_float "center is balanced" 1. c.Moo.Solution.f.(0)

let test_mine_shadow_minima () =
  let front = line_front 5 in
  let shadows = Moo.Mine.shadow_minima front in
  check_float "shadow f0" 0. shadows.(0).Moo.Solution.f.(0);
  check_float "shadow f1" 0. shadows.(1).Moo.Solution.f.(1)

let test_mine_equally_spaced () =
  let front = line_front 101 in
  let picks = Moo.Mine.equally_spaced ~k:5 front in
  Alcotest.(check int) "five picks" 5 (List.length picks);
  let f0s = List.map (fun s -> s.Moo.Solution.f.(0)) picks in
  Alcotest.(check bool) "includes both ends" true
    (List.mem 0. f0s && List.mem 1. f0s)

let test_mine_equally_spaced_small_front () =
  let front = line_front 3 in
  Alcotest.(check int) "whole front returned" 3
    (List.length (Moo.Mine.equally_spaced ~k:10 front))

let test_mine_empty_raises () =
  Alcotest.check_raises "ideal of empty" (Invalid_argument "Mine.ideal_point: empty front")
    (fun () -> ignore (Moo.Mine.ideal_point []))

(* {1 Scalarize} *)

let test_tchebycheff () =
  let g = Moo.Scalarize.tchebycheff ~w:[| 1.; 1. |] ~z:[| 0.; 0. |] [| 3.; 2. |] in
  check_float "max term" 3. g

let test_tchebycheff_zero_weight_guard () =
  let g = Moo.Scalarize.tchebycheff ~w:[| 0.; 1. |] ~z:[| 0.; 0. |] [| 1000.; 0.5 |] in
  (* The zero weight is lifted to 1e-6: objective 0 still matters a bit. *)
  Alcotest.(check bool) "guarded" true (g >= 0.5)

let test_uniform_weights_2d () =
  let w = Moo.Scalarize.uniform_weights ~n:5 ~n_obj:2 in
  Alcotest.(check int) "count" 5 (Array.length w);
  Array.iter (fun wi -> check_float "sums to 1" 1. (wi.(0) +. wi.(1))) w

let test_uniform_weights_3d () =
  let w = Moo.Scalarize.uniform_weights ~n:10 ~n_obj:3 in
  Alcotest.(check int) "count" 10 (Array.length w);
  Array.iter
    (fun wi -> check_float ~tol:1e-9 "sums to 1" 1. (wi.(0) +. wi.(1) +. wi.(2)))
    w

(* {1 Benchmarks} *)

let test_benchmark_zdt1_front () =
  let p = Moo.Benchmarks.zdt1 ~n:6 in
  (* On the true front the tail is zero and f2 = 1 - sqrt f1. *)
  let x = [| 0.25; 0.; 0.; 0.; 0.; 0. |] in
  let f = p.Moo.Problem.eval x in
  check_float ~tol:1e-12 "f1" 0.25 f.(0);
  check_float ~tol:1e-12 "f2" 0.5 f.(1)

let test_benchmark_zdt2_front () =
  let p = Testkit.Benchmarks.zdt2 ~n:4 in
  let f = p.Moo.Problem.eval [| 0.5; 0.; 0.; 0. |] in
  check_float ~tol:1e-12 "f2 = 1 - f1^2" 0.75 f.(1)

let test_benchmark_zdt3_disconnected () =
  let p = Testkit.Benchmarks.zdt3 ~n:4 in
  (* The sine term makes f2 non-monotone in f1 along the g=1 slice. *)
  let f2_at f1 = (p.Moo.Problem.eval [| f1; 0.; 0.; 0. |]).(1) in
  Alcotest.(check bool) "non-monotone" true
    (f2_at 0.1 < f2_at 0.05 || f2_at 0.3 < f2_at 0.2 || f2_at 0.8 < f2_at 0.7
     || f2_at 0.2 > f2_at 0.25)

let test_benchmark_dtlz2_sphere () =
  let p = Testkit.Benchmarks.dtlz2 ~n:7 ~n_obj:3 in
  (* With the distance variables at 0.5, the front satisfies Σ fᵢ² = 1. *)
  let x = [| 0.3; 0.7; 0.5; 0.5; 0.5; 0.5; 0.5 |] in
  let f = p.Moo.Problem.eval x in
  let norm2 = Array.fold_left (fun acc fi -> acc +. (fi *. fi)) 0. f in
  check_float ~tol:1e-9 "unit sphere" 1. norm2

let test_benchmark_fonseca_bounds () =
  let p = Testkit.Benchmarks.fonseca in
  let f = p.Moo.Problem.eval [| 0.; 0.; 0. |] in
  Alcotest.(check bool) "objectives in [0,1)" true
    (f.(0) >= 0. && f.(0) < 1. && f.(1) >= 0. && f.(1) < 1.)

let test_benchmark_true_fronts () =
  let tf = Testkit.Benchmarks.true_front_zdt1 ~k:11 in
  Alcotest.(check int) "k points" 11 (List.length tf);
  List.iter
    (fun f -> check_float ~tol:1e-12 "on front" (1. -. sqrt f.(0)) f.(1))
    tf;
  (* The analytic front is mutually non-dominated. *)
  Alcotest.(check int) "non-dominated" 11
    (List.length (Moo.Dominance.non_dominated_objectives tf))

(* {1 Properties} *)

let front_gen =
  QCheck.make
    ~print:(fun pts ->
      String.concat " " (List.map (fun p -> Printf.sprintf "(%g,%g)" p.(0) p.(1)) pts))
    QCheck.Gen.(
      list_size (1 -- 12)
        (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)
        >|= fun (a, b) -> [| a; b |]))

let prop_hv_bounded =
  QCheck.Test.make ~name:"hypervolume within reference box" ~count:200 front_gen
    (fun pts ->
      let hv = Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] pts in
      hv >= 0. && hv <= 1. +. 1e-9)

let prop_hv_matches_3d_lift =
  (* Lifting 2-D points into 3-D with a zero third coordinate must give
     the same hypervolume against a lifted reference with span 1. *)
  QCheck.Test.make ~name:"2d/3d consistency" ~count:100 front_gen (fun pts ->
      let hv2 = Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] pts in
      let lifted = List.map (fun p -> [| p.(0); p.(1); 0. |]) pts in
      let hv3 = Moo.Hypervolume.compute ~ref_point:[| 1.; 1.; 1. |] lifted in
      Float.abs (hv2 -. hv3) <= 1e-9)

let prop_non_dominated_mutual =
  QCheck.Test.make ~name:"non-dominated set is mutually incomparable" ~count:200
    front_gen (fun pts ->
      let sols = List.map (fun f -> sol f) pts in
      let nd = Moo.Dominance.non_dominated sols in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> a == b || not (Moo.Dominance.dominates a b))
            nd)
        nd)

let prop_union_front_covers =
  QCheck.Test.make ~name:"gp of fronts sums to >= 1" ~count:100
    (QCheck.pair front_gen front_gen) (fun (p1, p2) ->
      let f1 = List.map (fun f -> sol f) p1 and f2 = List.map (fun f -> sol f) p2 in
      let union = Moo.Coverage.union_front [ f1; f2 ] in
      union = []
      || Moo.Coverage.gp f1 union +. Moo.Coverage.gp f2 union >= 1. -. 1e-9)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "moo"
    [
      ( "problem",
        [
          Alcotest.test_case "clip" `Quick test_problem_clip;
          Alcotest.test_case "random in box" `Quick test_problem_random;
          Alcotest.test_case "default violation" `Quick test_problem_violation_default;
          Alcotest.test_case "evaluate" `Quick test_solution_evaluate;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "basic relations" `Quick test_dominance_basic;
          Alcotest.test_case "weak dominance" `Quick test_dominance_weak;
          Alcotest.test_case "constrained rules" `Quick test_constrained_dominance;
          Alcotest.test_case "non-dominated filter" `Quick test_non_dominated_filter;
          Alcotest.test_case "duplicate collapse" `Quick test_non_dominated_dedup;
        ] );
      ( "archive",
        [
          Alcotest.test_case "keeps non-dominated" `Quick test_archive_keeps_non_dominated;
          Alcotest.test_case "removes dominated" `Quick test_archive_removes_dominated;
        ] );
      ( "hypervolume",
        [
          Alcotest.test_case "single point" `Quick test_hv_single_point;
          Alcotest.test_case "staircase" `Quick test_hv_staircase;
          Alcotest.test_case "dominated ignored" `Quick test_hv_dominated_ignored;
          Alcotest.test_case "outside ref ignored" `Quick test_hv_outside_ref_ignored;
          Alcotest.test_case "3d cube" `Quick test_hv_3d_cube;
          Alcotest.test_case "3d union" `Quick test_hv_3d_two_boxes;
          Alcotest.test_case "normalized" `Quick test_hv_normalized;
          Alcotest.test_case "contributions" `Quick test_hv_contributions;
          Alcotest.test_case "contribution sum bound" `Quick test_hv_contributions_sum_bound;
          Alcotest.test_case "monotone in points" `Quick test_hv_monotone_in_points;
          Alcotest.test_case "duplicate points" `Quick test_hv_duplicate_points;
          Alcotest.test_case "point on ref boundary" `Quick test_hv_point_on_ref_boundary;
          Alcotest.test_case "point at ref" `Quick test_hv_point_at_ref;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "disjoint fronts" `Quick test_coverage_disjoint_fronts;
          Alcotest.test_case "dominating front" `Quick test_coverage_dominating_front;
          Alcotest.test_case "analyze" `Quick test_coverage_analyze;
        ] );
      ( "mine",
        [
          Alcotest.test_case "ideal and nadir" `Quick test_mine_ideal_nadir;
          Alcotest.test_case "closest to ideal" `Quick test_mine_closest_to_ideal;
          Alcotest.test_case "normalization matters" `Quick test_mine_closest_respects_normalization;
          Alcotest.test_case "shadow minima" `Quick test_mine_shadow_minima;
          Alcotest.test_case "equally spaced" `Quick test_mine_equally_spaced;
          Alcotest.test_case "small front" `Quick test_mine_equally_spaced_small_front;
          Alcotest.test_case "empty raises" `Quick test_mine_empty_raises;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "zdt1 analytic front" `Quick test_benchmark_zdt1_front;
          Alcotest.test_case "zdt2 analytic front" `Quick test_benchmark_zdt2_front;
          Alcotest.test_case "zdt3 disconnected" `Quick test_benchmark_zdt3_disconnected;
          Alcotest.test_case "dtlz2 sphere" `Quick test_benchmark_dtlz2_sphere;
          Alcotest.test_case "fonseca bounds" `Quick test_benchmark_fonseca_bounds;
          Alcotest.test_case "true fronts" `Quick test_benchmark_true_fronts;
        ] );
      ( "scalarize",
        [
          Alcotest.test_case "tchebycheff" `Quick test_tchebycheff;
          Alcotest.test_case "zero-weight guard" `Quick test_tchebycheff_zero_weight_guard;
          Alcotest.test_case "uniform weights 2d" `Quick test_uniform_weights_2d;
          Alcotest.test_case "uniform weights 3d" `Quick test_uniform_weights_3d;
        ] );
      ( "properties",
        q
          [
            prop_hv_bounded;
            prop_hv_matches_3d_lift;
            prop_non_dominated_mutual;
            prop_union_front_covers;
          ] );
    ]
