(* Tests for the second extension batch: quality indicators, quasi-random
   sampling, QMC yields and time-course simulation. *)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* {1 Indicators} *)

let line_front k =
  List.init k (fun i ->
      let t = float_of_int i /. float_of_int (k - 1) in
      [| t; 1. -. t |])

let test_gd_zero_on_reference () =
  let f = line_front 11 in
  check_float "front on itself" 0. (Moo.Indicators.generational_distance ~reference:f f)

let test_gd_shifted () =
  let f = line_front 5 in
  let shifted = List.map (fun p -> [| p.(0) +. 0.1; p.(1) +. 0.1 |]) f in
  let gd = Moo.Indicators.generational_distance ~reference:f shifted in
  Alcotest.(check bool) "positive" true (gd > 0.);
  (* Every point is sqrt(0.02) ≈ 0.1414 away from its own preimage, and
     no reference point is closer than that for the interior shifts. *)
  Alcotest.(check bool) "bounded by diagonal shift" true (gd <= sqrt 0.02 +. 1e-9)

let test_igd_penalizes_holes () =
  let reference = line_front 21 in
  let full = line_front 21 in
  let sparse = [ [| 0.; 1. |]; [| 1.; 0. |] ] in
  let igd_full = Moo.Indicators.inverted_generational_distance ~reference full in
  let igd_sparse = Moo.Indicators.inverted_generational_distance ~reference sparse in
  Alcotest.(check bool) "holes cost" true (igd_sparse > igd_full +. 0.05)

let test_spacing_even_vs_clustered () =
  let even = line_front 11 in
  let clustered =
    [ [| 0.; 1. |]; [| 0.01; 0.99 |]; [| 0.5; 0.5 |]; [| 1.; 0. |] ]
  in
  Alcotest.(check bool) "even front spacing ~ 0" true (Moo.Indicators.spacing even < 1e-9);
  Alcotest.(check bool) "clustered spacing > even" true
    (Moo.Indicators.spacing clustered > Moo.Indicators.spacing even)

let test_spacing_small_front () =
  check_float "fewer than 3 points" 0. (Moo.Indicators.spacing [ [| 1.; 2. |] ])

let test_epsilon_additive () =
  let reference = line_front 5 in
  check_float ~tol:1e-12 "front covers itself" 0.
    (Moo.Indicators.epsilon_additive ~reference reference);
  let worse = List.map (fun p -> [| p.(0) +. 0.2; p.(1) +. 0.2 |]) reference in
  check_float ~tol:1e-9 "uniform shift detected" 0.2
    (Moo.Indicators.epsilon_additive ~reference worse);
  let better = List.map (fun p -> [| p.(0) -. 0.1; p.(1) -. 0.1 |]) reference in
  check_float ~tol:1e-9 "dominating front has negative eps" (-0.1)
    (Moo.Indicators.epsilon_additive ~reference better)

let test_indicator_of_solutions () =
  let sols = List.map (fun f -> { Moo.Solution.x = [||]; f; v = 0. }) (line_front 5) in
  check_float "adapter" 0.
    (Moo.Indicators.of_solutions Moo.Indicators.generational_distance ~reference:sols sols)

(* {1 Quasirandom} *)

let test_halton_base2 () =
  check_float "1/2" 0.5 (Numerics.Quasirandom.halton ~base:2 1);
  check_float "1/4" 0.25 (Numerics.Quasirandom.halton ~base:2 2);
  check_float "3/4" 0.75 (Numerics.Quasirandom.halton ~base:2 3);
  check_float "1/8" 0.125 (Numerics.Quasirandom.halton ~base:2 4)

let test_halton_base3 () =
  check_float "1/3" (1. /. 3.) (Numerics.Quasirandom.halton ~base:3 1);
  check_float "2/3" (2. /. 3.) (Numerics.Quasirandom.halton ~base:3 2);
  check_float "1/9" (1. /. 9.) (Numerics.Quasirandom.halton ~base:3 3)

let test_halton_range () =
  let q = Numerics.Quasirandom.create ~dim:5 in
  for _ = 1 to 1000 do
    let p = Numerics.Quasirandom.next q in
    Array.iter (fun x -> if x <= 0. || x >= 1. then Alcotest.failf "out of (0,1): %g" x) p
  done

let test_halton_low_discrepancy () =
  (* 1-D base-2 Halton: the first 2^k - 1 points tile dyadic intervals
     evenly; counts in [0, 0.5) and [0.5, 1) differ by at most 1. *)
  let lo = ref 0 and hi = ref 0 in
  for i = 1 to 255 do
    if Numerics.Quasirandom.halton ~base:2 i < 0.5 then incr lo else incr hi
  done;
  Alcotest.(check bool) "balanced halves" true (abs (!lo - !hi) <= 1)

let test_halton_mean () =
  let q = Numerics.Quasirandom.create ~dim:1 in
  let n = 4096 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. (Numerics.Quasirandom.next q).(0)
  done;
  check_float ~tol:1e-3 "mean 1/2" 0.5 (!acc /. float_of_int n)

let test_skip () =
  let a = Numerics.Quasirandom.create ~dim:2 in
  let b = Numerics.Quasirandom.create ~dim:2 in
  Numerics.Quasirandom.skip a 10;
  for _ = 1 to 10 do
    ignore (Numerics.Quasirandom.next b)
  done;
  Alcotest.(check bool) "skip = discard" true
    (Numerics.Vec.approx_equal (Numerics.Quasirandom.next a) (Numerics.Quasirandom.next b))

(* {1 QMC yield} *)

let test_qmc_yield_linear () =
  (* Same analytic case as the pseudo-random test: f(x) = x₀ with 10%
     perturbation and ε = 5% gives Γ = 50%; QMC nails it with far fewer
     trials. *)
  let rng = Numerics.Rng.create 1 in
  let r =
    Robustness.Yield.gamma ~sampler:`Quasi ~rng ~f:(fun x -> x.(0)) ~trials:512 [| 1. |]
  in
  check_float ~tol:1. "half survive" 50. r.Robustness.Yield.yield_pct

let test_qmc_vs_pseudo_agree () =
  let f x = (x.(0) *. x.(0)) +. x.(1) in
  let x = [| 1.; 2. |] in
  let rng = Numerics.Rng.create 2 in
  let qmc = Robustness.Yield.gamma ~sampler:`Quasi ~rng ~f ~trials:2000 x in
  let mc = Robustness.Yield.gamma ~rng ~f ~trials:20000 x in
  Alcotest.(check bool)
    (Printf.sprintf "qmc %.1f vs mc %.1f" qmc.Robustness.Yield.yield_pct
       mc.Robustness.Yield.yield_pct)
    true
    (Float.abs (qmc.Robustness.Yield.yield_pct -. mc.Robustness.Yield.yield_pct) < 3.)

(* {1 Simulation} *)

let env = Photo.Params.present ~tp_export:Photo.Params.low_export
let natural = Array.make Photo.Enzyme.count 1.

let test_time_course_samples () =
  let tc = Photo.Simulate.time_course ~env ~ratios:natural ~t_end:50. ~dt_sample:10. () in
  Alcotest.(check int) "six samples (0..50)" 6 (List.length tc);
  let ts = List.map (fun s -> s.Photo.Simulate.t) tc in
  Alcotest.(check bool) "monotone time" true (List.sort compare ts = ts)

let test_induction_rises () =
  let tc = Photo.Simulate.induction ~env ~ratios:natural () in
  match tc, List.rev tc with
  | first :: _, last :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "dark %.2f < final %.2f" first.Photo.Simulate.assimilation
         last.Photo.Simulate.assimilation)
      true
      (first.Photo.Simulate.assimilation < last.Photo.Simulate.assimilation);
    (* The induction should approach the steady-state rate. *)
    let ss = (Photo.Steady_state.natural ~env ()).Photo.Steady_state.uptake in
    Alcotest.(check bool)
      (Printf.sprintf "final %.2f near ss %.2f" last.Photo.Simulate.assimilation ss)
      true
      (Float.abs (last.Photo.Simulate.assimilation -. ss) < 0.15 *. ss)
  | _ -> Alcotest.fail "empty induction"

let test_induction_half_time () =
  let tc = Photo.Simulate.induction ~env ~ratios:natural () in
  let t_half = Photo.Simulate.induction_half_time tc in
  Alcotest.(check bool)
    (Printf.sprintf "t_half %.0f in (0, 300)" t_half)
    true
    (t_half > 0. && t_half < 300.)

let () =
  Alcotest.run "extras2"
    [
      ( "indicators",
        [
          Alcotest.test_case "gd zero on reference" `Quick test_gd_zero_on_reference;
          Alcotest.test_case "gd shifted" `Quick test_gd_shifted;
          Alcotest.test_case "igd penalizes holes" `Quick test_igd_penalizes_holes;
          Alcotest.test_case "spacing even vs clustered" `Quick test_spacing_even_vs_clustered;
          Alcotest.test_case "spacing small front" `Quick test_spacing_small_front;
          Alcotest.test_case "epsilon additive" `Quick test_epsilon_additive;
          Alcotest.test_case "solutions adapter" `Quick test_indicator_of_solutions;
        ] );
      ( "quasirandom",
        [
          Alcotest.test_case "halton base 2" `Quick test_halton_base2;
          Alcotest.test_case "halton base 3" `Quick test_halton_base3;
          Alcotest.test_case "range" `Quick test_halton_range;
          Alcotest.test_case "low discrepancy" `Quick test_halton_low_discrepancy;
          Alcotest.test_case "mean" `Quick test_halton_mean;
          Alcotest.test_case "skip" `Quick test_skip;
        ] );
      ( "qmc-yield",
        [
          Alcotest.test_case "linear case" `Quick test_qmc_yield_linear;
          Alcotest.test_case "qmc vs pseudo" `Quick test_qmc_vs_pseudo_agree;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "time-course sampling" `Slow test_time_course_samples;
          Alcotest.test_case "induction rises" `Slow test_induction_rises;
          Alcotest.test_case "induction half-time" `Slow test_induction_half_time;
        ] );
    ]
