(* Tests for the robustness framework: perturbations, the yield Γ, screening. *)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let expect_invalid name f =
  Alcotest.(check bool) name true
    (match f () with exception Invalid_argument _ -> true | _ -> false)

(* {1 Perturb} *)

let test_global_within_band () =
  let x = [| 1.; 2.; 4. |] in
  for t = 0 to 199 do
    let y = Robustness.Perturb.stream_trial ~seed:1 ~delta:0.1 x t in
    Array.iteri
      (fun i yi ->
        let r = yi /. x.(i) in
        if r < 0.9 -. 1e-12 || r > 1.1 +. 1e-12 then Alcotest.failf "band violated: %g" r)
      y
  done

let test_local_changes_one () =
  let x = [| 1.; 2.; 4. |] in
  for t = 0 to 99 do
    let y = Robustness.Perturb.stream_trial ~seed:2 ~delta:0.1 ~index:1 x t in
    check_float "x0 untouched" x.(0) y.(0);
    check_float "x2 untouched" x.(2) y.(2)
  done

let test_zero_delta_identity () =
  let x = [| 1.; 2. |] in
  let y = Robustness.Perturb.stream_trial ~seed:3 ~delta:0. x 0 in
  Alcotest.(check bool) "identity" true (Testkit.Vec.approx_equal x y)

(* {1 Yield} *)

let test_gamma_linear_function () =
  (* f(x) = x₀: a 10% perturbation changes f by up to 10%, so with ε = 5%
     exactly half the uniform ensemble survives (in expectation). *)
  let r = Robustness.Yield.gamma_pool ~seed:6 ~f:(fun x -> x.(0)) ~trials:20000 [| 1. |] in
  check_float ~tol:2. "half survive" 50. r.Robustness.Yield.yield_pct

let test_gamma_constant_function () =
  let r = Robustness.Yield.gamma_pool ~seed:7 ~f:(fun _ -> 42.) ~trials:500 [| 1.; 2. |] in
  check_float "fully robust" 100. r.Robustness.Yield.yield_pct;
  Alcotest.(check int) "survivors" 500 r.Robustness.Yield.survivors

let test_gamma_fragile_function () =
  (* A very steep function: almost no perturbation survives ε = 5%. *)
  let f x = exp (20. *. x.(0)) in
  let r = Robustness.Yield.gamma_pool ~seed:8 ~f ~trials:2000 [| 1. |] in
  Alcotest.(check bool) "fragile" true (r.Robustness.Yield.yield_pct < 10.)

let test_gamma_local_index () =
  (* f depends only on x₀: perturbing x₁ locally is always robust. *)
  let f x = x.(0) in
  let r = Robustness.Yield.gamma_pool ~seed:9 ~f ~trials:300 ~index:1 [| 1.; 5. |] in
  check_float "insensitive direction" 100. r.Robustness.Yield.yield_pct

let test_gamma_nominal_recorded () =
  let r = Robustness.Yield.gamma_pool ~seed:10 ~f:(fun x -> 2. *. x.(0)) ~trials:10 [| 3. |] in
  check_float "nominal" 6. r.Robustness.Yield.nominal

(* {1 Screen} *)

let mk_sol x f = { Moo.Solution.x; f; v = 0. }

let test_screen_solutions () =
  let sols = [ mk_sol [| 1. |] [| 1.; 1. |]; mk_sol [| 2. |] [| 2.; 0.5 |] ] in
  let entries = Robustness.Screen.front_sweep ~seed:11 ~f:(fun _ -> 1.) ~trials:50 ~k:2 sols in
  Alcotest.(check int) "entry per solution" 2 (List.length entries);
  List.iter
    (fun e -> check_float "constant property robust" 100. e.Robustness.Screen.yield.yield_pct)
    entries

let test_front_sweep_count () =
  let front =
    List.init 40 (fun i ->
        let t = float_of_int i /. 39. in
        mk_sol [| t |] [| t; 1. -. t |])
  in
  let entries = Robustness.Screen.front_sweep ~seed:12 ~f:(fun _ -> 1.) ~trials:20 ~k:10 front in
  Alcotest.(check int) "k entries" 10 (List.length entries)

let test_local_analysis_profile () =
  (* f sensitive to x₀ (steep), insensitive to x₁. *)
  let f x = exp (30. *. x.(0)) +. (0.0001 *. x.(1)) in
  let profile = Robustness.Screen.local_analysis ~seed:13 ~f ~trials:200 [| 1.; 1. |] in
  match profile with
  | [ p0; p1 ] ->
    Alcotest.(check bool) "sensitive component low yield" true
      (p0.Robustness.Screen.yield_pct < p1.Robustness.Screen.yield_pct);
    Alcotest.(check int) "indices" 1 p1.Robustness.Screen.index
  | _ -> Alcotest.fail "profile shape"

let test_max_yield () =
  let robust = mk_sol [| 0.0001 |] [| 1.; 1. |] in
  let fragile = mk_sol [| 1. |] [| 0.5; 1.5 |] in
  (* f = exp(10 x): tiny x is robust to relative perturbation... both get
     multiplicative noise; x=0.0001 changes f by ~0.1% → robust;
     x=1 changes f by ~e^±1 → fragile. *)
  let f x = exp (10. *. x.(0)) in
  let entries = Robustness.Screen.front_sweep ~seed:14 ~f ~trials:200 ~k:2 [ robust; fragile ] in
  let best = Robustness.Screen.max_yield entries in
  Alcotest.(check bool) "robust one wins" true
    (best.Robustness.Screen.solution == robust)

let test_max_yield_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Screen.max_yield: empty") (fun () ->
      ignore (Robustness.Screen.max_yield []))

(* {1 Properties} *)

let prop_yield_in_range =
  QCheck.Test.make ~name:"yield is a percentage" ~count:50
    QCheck.(pair (int_bound 100000) (float_range 0.5 5.))
    (fun (seed, x0) ->
      let r = Robustness.Yield.gamma_pool ~seed ~f:(fun x -> x.(0) ** 2.) ~trials:100 [| x0 |] in
      r.Robustness.Yield.yield_pct >= 0. && r.Robustness.Yield.yield_pct <= 100.)

(* Γ is the paper's δ = 10 %, ε = 5 %: recount the survivors of the same
   stream ensemble by hand, at ε = 2 %, 5 % and 8 %.  The yield equals the
   5 % count and lies between the other two. *)
let prop_larger_eps_no_worse =
  QCheck.Test.make ~name:"yield monotone in eps" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let f x = (2. *. x.(0)) +. x.(1) in
      let x = [| 1.; 3. |] in
      let trials = 300 in
      let nominal = f x in
      let deviations =
        List.init trials (fun t ->
            Float.abs (nominal -. f (Robustness.Perturb.stream_trial ~seed ~delta:0.10 x t)))
      in
      let count eps =
        List.length (List.filter (fun d -> d <= eps *. Float.abs nominal) deviations)
      in
      let r = Robustness.Yield.gamma_pool ~seed ~f ~trials x in
      r.Robustness.Yield.survivors = count 0.05
      && count 0.02 <= r.Robustness.Yield.survivors
      && r.Robustness.Yield.survivors <= count 0.08)

let test_perturb_invalid_arguments () =
  let x = [| 1.; 2. |] in
  let trial ?index delta () = Robustness.Perturb.stream_trial ~seed:7 ~delta ?index x 0 in
  expect_invalid "global: delta = 1" (trial 1.);
  expect_invalid "global: negative delta" (trial (-0.1));
  expect_invalid "local: delta = 1" (trial ~index:0 1.);
  expect_invalid "local: index out of range" (trial ~index:2 0.1);
  expect_invalid "local: negative index" (trial ~index:(-1) 0.1)

let test_yield_invalid_arguments () =
  expect_invalid "gamma: zero trials" (fun () ->
      Robustness.Yield.gamma_pool ~seed:8 ~f:(fun x -> x.(0)) ~trials:0 [| 1. |])

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "robustness"
    [
      ( "perturb",
        [
          Alcotest.test_case "global band" `Quick test_global_within_band;
          Alcotest.test_case "local single component" `Quick test_local_changes_one;
          Alcotest.test_case "zero delta identity" `Quick test_zero_delta_identity;
        ] );
      ( "perturb-validation",
        [
          Alcotest.test_case "invalid arguments raise" `Quick
            test_perturb_invalid_arguments;
        ] );
      ( "yield",
        [
          Alcotest.test_case "gamma linear = 50%" `Quick test_gamma_linear_function;
          Alcotest.test_case "gamma constant = 100%" `Quick test_gamma_constant_function;
          Alcotest.test_case "gamma fragile" `Quick test_gamma_fragile_function;
          Alcotest.test_case "gamma local index" `Quick test_gamma_local_index;
          Alcotest.test_case "nominal recorded" `Quick test_gamma_nominal_recorded;
        ] );
      ( "yield-validation",
        [
          Alcotest.test_case "invalid arguments raise" `Quick test_yield_invalid_arguments;
        ] );
      ( "screen",
        [
          Alcotest.test_case "screen solutions" `Quick test_screen_solutions;
          Alcotest.test_case "front sweep count" `Quick test_front_sweep_count;
          Alcotest.test_case "local profile" `Quick test_local_analysis_profile;
          Alcotest.test_case "max yield" `Quick test_max_yield;
          Alcotest.test_case "max yield empty" `Quick test_max_yield_empty;
        ] );
      ("properties", q [ prop_yield_in_range; prop_larger_eps_no_worse ]);
    ]
