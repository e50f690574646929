(* Cross-verification tests: independent (slower, simpler) methods must
   agree with the production implementations.

   - simplex vs brute-force vertex enumeration on random 2-variable LPs;
   - hypervolume vs Monte-Carlo area estimation;
   - Dormand–Prince convergence order on a problem with known solution;
   - FBA optimum vs hand-computed yields on an analytic chain. *)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* {1 Simplex vs vertex enumeration} *)

(* max c·x s.t. a_k·x <= b_k, 0 <= x <= u (2 variables): the optimum lies
   on a vertex — enumerate all intersections of constraint pairs (plus
   bounds) and take the best feasible one. *)
let brute_force_2var ~cx ~cy ~rows ~ux ~uy =
  let lines =
    (* constraint rows ax+by=c plus the four bound lines *)
    rows
    @ [ (1., 0., 0.); (1., 0., ux); (0., 1., 0.); (0., 1., uy) ]
  in
  let feasible (x, y) =
    x >= -1e-9 && x <= ux +. 1e-9 && y >= -1e-9 && y <= uy +. 1e-9
    && List.for_all (fun (a, b, c) -> (a *. x) +. (b *. y) <= c +. 1e-9) rows
  in
  let best = ref neg_infinity in
  List.iteri
    (fun i (a1, b1, c1) ->
      List.iteri
        (fun j (a2, b2, c2) ->
          if i < j then begin
            let det = (a1 *. b2) -. (a2 *. b1) in
            if Float.abs det > 1e-12 then begin
              let x = ((c1 *. b2) -. (c2 *. b1)) /. det in
              let y = ((a1 *. c2) -. (a2 *. c1)) /. det in
              if feasible (x, y) then
                best := Float.max !best ((cx *. x) +. (cy *. y))
            end
          end)
        lines)
    lines;
  !best

let test_simplex_matches_vertex_enumeration () =
  let rng = Numerics.Rng.create 123 in
  for _ = 1 to 50 do
    let cx = Numerics.Rng.uniform rng 0. 2. and cy = Numerics.Rng.uniform rng 0. 2. in
    let ux = Numerics.Rng.uniform rng 1. 5. and uy = Numerics.Rng.uniform rng 1. 5. in
    let rows =
      List.init 3 (fun _ ->
          ( Numerics.Rng.uniform rng 0.1 1.,
            Numerics.Rng.uniform rng 0.1 1.,
            Numerics.Rng.uniform rng 0.5 4. ))
    in
    let expected = brute_force_2var ~cx ~cy ~rows ~ux ~uy in
    let p = Testkit.Lp_problem.make ~n_vars:2 () in
    Testkit.Lp_problem.set_bounds p 0 0. ux;
    Testkit.Lp_problem.set_bounds p 1 0. uy;
    Testkit.Lp_problem.set_objective p 0 cx;
    Testkit.Lp_problem.set_objective p 1 cy;
    List.iter (fun (a, b, c) -> Testkit.Lp_problem.add_row p [ (0, a); (1, b) ] Testkit.Lp_problem.Le c) rows;
    match Testkit.Lp_problem.solve p with
    | Testkit.Lp_problem.Optimal { objective; _ } ->
      check_float ~tol:1e-6 "simplex = vertex enumeration" expected objective
    | _ -> Alcotest.fail "bounded feasible LP must be optimal"
  done

(* {1 Hypervolume vs Monte Carlo} *)

let test_hypervolume_vs_monte_carlo () =
  let rng = Numerics.Rng.create 5 in
  for _ = 1 to 5 do
    let pts =
      List.init 8 (fun _ ->
          [| Numerics.Rng.uniform rng 0. 1.; Numerics.Rng.uniform rng 0. 1. |])
    in
    let exact = Moo.Hypervolume.compute ~ref_point:[| 1.; 1. |] pts in
    (* Monte-Carlo membership test over the unit square. *)
    let n = 200_000 in
    let hits = ref 0 in
    for _ = 1 to n do
      let x = Numerics.Rng.float rng and y = Numerics.Rng.float rng in
      if List.exists (fun p -> p.(0) <= x && p.(1) <= y) pts then incr hits
    done;
    let mc = float_of_int !hits /. float_of_int n in
    check_float ~tol:0.01 "hv within 1% of MC" mc exact
  done

let test_hypervolume_3d_vs_monte_carlo () =
  let rng = Numerics.Rng.create 6 in
  let pts =
    List.init 6 (fun _ ->
        Array.init 3 (fun _ -> Numerics.Rng.uniform rng 0. 1.))
  in
  let exact = Moo.Hypervolume.compute ~ref_point:[| 1.; 1.; 1. |] pts in
  let n = 200_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    let q = Array.init 3 (fun _ -> Numerics.Rng.float rng) in
    if List.exists (fun p -> p.(0) <= q.(0) && p.(1) <= q.(1) && p.(2) <= q.(2)) pts
    then incr hits
  done;
  check_float ~tol:0.01 "3d hv within 1% of MC" (float_of_int !hits /. float_of_int n) exact

(* {1 ODE convergence order} *)

let test_dopri5_error_scales_with_tolerance () =
  (* y' = y·cos t, y(0) = 1 → y(t) = exp(sin t). *)
  let f t y dy = dy.(0) <- y.(0) *. cos t in
  let exact = exp (sin 5.) in
  let err rtol =
    let r = Numerics.Ode.dopri5 ~rtol ~atol:(rtol /. 1000.) ~f ~t0:0. ~t1:5. ~y0:[| 1. |] () in
    Float.abs (r.Numerics.Ode.y.(0) -. exact)
  in
  let e3 = err 1e-3 and e6 = err 1e-6 and e9 = err 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "errors shrink: %.2e -> %.2e -> %.2e" e3 e6 e9)
    true
    (e6 < e3 && e9 <= e6 +. 1e-12 && e9 < 1e-7)

(* {1 FBA vs analytic yield} *)

let test_fba_matches_hand_computed_yield () =
  (* ac uptake U, full oxidation: EP = 4·U − (consumption by fixed ATPM
     and the minimum biomass)... verified on a hand-built 3-step chain
     instead: A → B → C, each 1:1, uptake <= 7.25: max EX_C = 7.25. *)
  let net = Fba.Network.create ~metabolites:[| "A"; "B"; "C" |] () in
  let _ = Fba.Network.add_reaction net ~name:"EX_A" ~stoich:[ (0, 1.) ] ~lb:0. ~ub:7.25 in
  let _ = Fba.Network.add_reaction net ~name:"AB" ~stoich:[ (0, -1.); (1, 1.) ] ~lb:0. ~ub:1000. in
  let _ = Fba.Network.add_reaction net ~name:"BC" ~stoich:[ (1, -2.); (2, 1.) ] ~lb:0. ~ub:1000. in
  let ex_c = Fba.Network.add_reaction net ~name:"EX_C" ~stoich:[ (2, -1.) ] ~lb:0. ~ub:1000. in
  let sol = Fba.Analysis.fba ~t:net ~objective:ex_c in
  (* 2 B per C: yield is uptake/2. *)
  check_float ~tol:1e-6 "stoichiometric yield" 3.625 sol.Fba.Analysis.objective

let test_geobacter_electron_accounting () =
  (* The synthetic Geobacter's electron yield per acetate is 4 (3 NADH +
     1 menaquinol); max EP must equal 4·acetate − (ATPM·1 e) −
     (biomass-floor electron cost), reproduced by the LP within 1%. *)
  let g = Fba.Geobacter.build () in
  let sol = Fba.Analysis.fba ~t:g.Fba.Geobacter.net ~objective:g.Fba.Geobacter.ep in
  let acetate = sol.Fba.Analysis.fluxes.(g.Fba.Geobacter.ex_acetate) in
  Alcotest.(check bool) "acetate at its bound" true (acetate > 51.7);
  Alcotest.(check bool)
    (Printf.sprintf "EP %.1f below the 4e/acetate ceiling %.1f" sol.Fba.Analysis.objective
       (4. *. acetate))
    true
    (sol.Fba.Analysis.objective < 4. *. acetate
     && sol.Fba.Analysis.objective > 0.75 *. 4. *. acetate)

let () =
  Alcotest.run "verification"
    [
      ( "lp",
        [
          Alcotest.test_case "simplex vs vertex enumeration" `Quick
            test_simplex_matches_vertex_enumeration;
        ] );
      ( "hypervolume",
        [
          Alcotest.test_case "2d vs monte carlo" `Quick test_hypervolume_vs_monte_carlo;
          Alcotest.test_case "3d vs monte carlo" `Quick test_hypervolume_3d_vs_monte_carlo;
        ] );
      ( "ode",
        [
          Alcotest.test_case "dopri5 tolerance scaling" `Quick
            test_dopri5_error_scales_with_tolerance;
        ] );
      ( "fba",
        [
          Alcotest.test_case "analytic yield" `Quick test_fba_matches_hand_computed_yield;
          Alcotest.test_case "geobacter electron ceiling" `Slow
            test_geobacter_electron_accounting;
        ] );
    ]
