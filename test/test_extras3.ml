(* Tests for the third extension batch: single-objective GA, the
   fixed-nitrogen (Zhu-style) optimization and E. coli OptKnock
   growth coupling. *)

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

(* {1 E. coli core + growth coupling} *)

let test_ecoli_builds () =
  let m = Fba.Ecoli_core.build () in
  Alcotest.(check bool) "compact" true
    (Fba.Network.n_reactions m.Fba.Ecoli_core.net < 40);
  Alcotest.(check int) "four candidates" 4
    (List.length (Fba.Ecoli_core.succinate_candidates m))

let test_ecoli_wild_type_grows () =
  let m = Fba.Ecoli_core.build () in
  let sol = Fba.Analysis.fba ~t:m.Fba.Ecoli_core.net ~objective:m.Fba.Ecoli_core.biomass in
  Alcotest.(check bool) "grows" true (sol.Fba.Analysis.objective > 1.)

let test_ecoli_wild_type_not_coupled () =
  let m = Fba.Ecoli_core.build () in
  match
    Fba.Knockout.growth_coupled ~t:m.Fba.Ecoli_core.net
      ~target:m.Fba.Ecoli_core.ex_succinate ~biomass:m.Fba.Ecoli_core.biomass ~removed:[]
  with
  | None -> Alcotest.fail "wild type must be viable"
  | Some c ->
    let lo, _ = c.Fba.Knockout.target_at_growth in
    Alcotest.(check bool) "no guaranteed succinate" true (lo < 1e-6)

let test_ecoli_pfl_ldh_couples () =
  (* The classic OptKnock outcome: deleting the PFL and LDH branches
     forces glycolytic NADH through the reductive branch — succinate is
     growth-coupled. *)
  let m = Fba.Ecoli_core.build () in
  match
    Fba.Knockout.growth_coupled ~t:m.Fba.Ecoli_core.net
      ~target:m.Fba.Ecoli_core.ex_succinate ~biomass:m.Fba.Ecoli_core.biomass
      ~removed:[ m.Fba.Ecoli_core.pfl; m.Fba.Ecoli_core.ldh ]
  with
  | None -> Alcotest.fail "dPFL dLDH must remain viable"
  | Some c ->
    let lo, _ = c.Fba.Knockout.target_at_growth in
    Alcotest.(check bool)
      (Printf.sprintf "guaranteed succinate %.2f > 1" lo)
      true (lo > 1.);
    Alcotest.(check bool) "growth persists" true (c.Fba.Knockout.biomass_opt > 0.5)

let test_ecoli_growth_coupled_restores_bounds () =
  let m = Fba.Ecoli_core.build () in
  let before = Fba.Network.bounds m.Fba.Ecoli_core.net in
  ignore
    (Fba.Knockout.growth_coupled ~t:m.Fba.Ecoli_core.net
       ~target:m.Fba.Ecoli_core.ex_succinate ~biomass:m.Fba.Ecoli_core.biomass
       ~removed:[ m.Fba.Ecoli_core.pfl ]);
  let after = Fba.Network.bounds m.Fba.Ecoli_core.net in
  Array.iteri
    (fun j (lb, ub) ->
      let lb', ub' = after.(j) in
      check_float "lb" lb lb';
      check_float "ub" ub ub')
    before

let test_ecoli_growth_coupled_restores_on_raise () =
  (* An out-of-range target fails inside the FVA, after the knockouts and
     the growth floor are pinned: the pins must still come off. *)
  let m = Fba.Ecoli_core.build () in
  let net = m.Fba.Ecoli_core.net in
  let before = Array.copy (Fba.Network.bounds net) in
  let raised =
    match
      Fba.Knockout.growth_coupled ~t:net ~target:(Fba.Network.n_reactions net)
        ~biomass:m.Fba.Ecoli_core.biomass
        ~removed:[ m.Fba.Ecoli_core.pfl; m.Fba.Ecoli_core.ldh ]
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "out-of-range target raises" true raised;
  let after = Fba.Network.bounds net in
  Array.iteri
    (fun j (lb, ub) ->
      let lb', ub' = after.(j) in
      check_float ~tol:0. (Printf.sprintf "lb %d" j) lb lb';
      check_float ~tol:0. (Printf.sprintf "ub %d" j) ub ub')
    before

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
      ( "ecoli-optknock",
        [
          Alcotest.test_case "builds" `Quick test_ecoli_builds;
          Alcotest.test_case "wild type grows" `Quick test_ecoli_wild_type_grows;
          Alcotest.test_case "wild type not coupled" `Quick test_ecoli_wild_type_not_coupled;
          Alcotest.test_case "dPFL dLDH couples" `Quick test_ecoli_pfl_ldh_couples;
          Alcotest.test_case "bounds restored" `Quick test_ecoli_growth_coupled_restores_bounds;
          Alcotest.test_case "bounds restored on raise" `Quick
            test_ecoli_growth_coupled_restores_on_raise;
        ] );
    ]
