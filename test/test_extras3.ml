(* Tests for the third extension batch: single-objective GA and the
   fixed-nitrogen (Zhu-style) optimization. *)

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
  let f x = -.Numerics.Vec.norm2 x in
  let a = Ea.Ga.maximize ~generations:20 ~seed:5 ~lower:(Array.make 3 (-1.)) ~upper:(Array.make 3 1.) f in
  let b = Ea.Ga.maximize ~generations:20 ~seed:5 ~lower:(Array.make 3 (-1.)) ~upper:(Array.make 3 1.) f in
  check_float "same result" a.Ea.Ga.best_f b.Ea.Ga.best_f

let test_ga_evaluation_budget () =
  let count = ref 0 in
  let f _ = incr count; 0. in
  let r = Ea.Ga.maximize ~generations:10 ~seed:6 ~lower:[| 0. |] ~upper:[| 1. |] f in
  Alcotest.(check int) "count matches" !count r.Ea.Ga.evaluations

(* {1 Fixed-nitrogen optimization} *)

let test_ratios_of_weights_budget () =
  let rng = Numerics.Rng.create 7 in
  for _ = 1 to 20 do
    let w = Array.init Photo.Enzyme.count (fun _ -> Numerics.Rng.uniform rng 0.05 3.) in
    let target = Numerics.Rng.uniform rng 5e4 3e5 in
    let ratios = Photo.Fixed_nitrogen.ratios_of_weights ~target_nitrogen:target w in
    let n =
      Photo.Enzyme.raw_nitrogen (Photo.Enzyme.vmax_of_ratios ratios)
      *. Photo.Params.default.Photo.Params.nitrogen_scale
    in
    check_float ~tol:(target *. 1e-9) "budget exact" target n
  done

let test_ratios_of_weights_proportional () =
  let w = Array.make Photo.Enzyme.count 2. in
  let ratios = Photo.Fixed_nitrogen.ratios_of_weights ~target_nitrogen:208330. w in
  (* Uniform weights at the natural budget give the natural partition. *)
  Array.iter (fun r -> check_float ~tol:1e-6 "uniform = natural" 1. r) ratios

let test_fixed_nitrogen_gains () =
  (* Even a tiny budget must beat the natural leaf by a clear margin —
     the Zhu et al. cross-check. *)
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let r = Photo.Fixed_nitrogen.optimize ~generations:12 ~env () in
  Alcotest.(check bool)
    (Printf.sprintf "gain %.1f%% > 25%%" r.Photo.Fixed_nitrogen.gain_pct)
    true
    (r.Photo.Fixed_nitrogen.gain_pct > 25.);
  let n =
    Photo.Enzyme.raw_nitrogen (Photo.Enzyme.vmax_of_ratios r.Photo.Fixed_nitrogen.ratios)
    *. Photo.Params.default.Photo.Params.nitrogen_scale
  in
  check_float ~tol:1. "constraint held" 208330. n

let () =
  Alcotest.run "extras3"
    [
      ( "ga",
        [
          Alcotest.test_case "sphere optimum" `Quick test_ga_sphere;
          Alcotest.test_case "history monotone" `Quick test_ga_history_monotone;
          Alcotest.test_case "elitism" `Quick test_ga_elitism_preserves_best;
          Alcotest.test_case "deterministic" `Quick test_ga_deterministic;
          Alcotest.test_case "evaluation accounting" `Quick test_ga_evaluation_budget;
        ] );
      ( "fixed-nitrogen",
        [
          Alcotest.test_case "budget exact" `Quick test_ratios_of_weights_budget;
          Alcotest.test_case "uniform weights = natural" `Quick test_ratios_of_weights_proportional;
          Alcotest.test_case "zhu-style gain" `Slow test_fixed_nitrogen_gains;
        ] );
    ]
