(* Tests for the sparse stoichiometry, FBA toolbox, the synthetic
   Geobacter model, knockout screening and E. coli OptKnock growth
   coupling. *)

let check_float ?(tol = 1e-7) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

(* {1 Sparse} *)

let test_sparse_set_get () =
  let m = Numerics.Sparse.create ~rows:3 ~cols:3 in
  Numerics.Sparse.set m 0 1 2.5;
  check_float "set/get" 2.5 (Testkit.Sparse.get m 0 1);
  check_float "default zero" 0. (Testkit.Sparse.get m 2 2);
  Numerics.Sparse.set m 0 1 0.;
  Alcotest.(check int) "zero removes" 0 (Testkit.Sparse.nnz ~cols:3 m)

let test_sparse_mv () =
  let m = Numerics.Sparse.create ~rows:2 ~cols:3 in
  Numerics.Sparse.set m 0 0 1.;
  Numerics.Sparse.set m 0 2 2.;
  Numerics.Sparse.set m 1 1 (-1.);
  let y = Array.make 3 Float.nan in
  Numerics.Sparse.csc_mv_into (Numerics.Sparse.compress m) [| 1.; 2.; 3. |] y;
  Alcotest.(check bool) "mv" true (Testkit.Vec.approx_equal (Array.sub y 0 2) [| 7.; -2. |]);
  Alcotest.(check bool) "entries past the rows untouched" true (Float.is_nan y.(2))

let test_sparse_tmv_matches_dense () =
  let rng = Numerics.Rng.create 31 in
  let m = Numerics.Sparse.create ~rows:6 ~cols:9 in
  for _ = 1 to 20 do
    Numerics.Sparse.set m (Numerics.Rng.int rng 6) (Numerics.Rng.int rng 9)
      (Numerics.Rng.uniform rng (-2.) 2.)
  done;
  let x = Array.init 6 (fun _ -> Numerics.Rng.uniform rng (-1.) 1.) in
  let v = Array.init 9 (fun _ -> Numerics.Rng.uniform rng (-1.) 1.) in
  let dense = Testkit.Sparse.to_dense ~rows:6 ~cols:9 m in
  let got = Array.copy v in
  Numerics.Sparse.csc_tmv_sub (Numerics.Sparse.compress m) x got;
  Alcotest.(check bool) "v - tmv = v - dense tmv" true
    (Testkit.Vec.approx_equal ~tol:1e-10 got (Testkit.Vec.sub v (Testkit.Matrix.tmv dense x)))

let test_sparse_column () =
  let m = Numerics.Sparse.create ~rows:4 ~cols:2 in
  Numerics.Sparse.set m 3 0 1.;
  Numerics.Sparse.set m 1 0 (-1.);
  (match Testkit.Sparse.column m 0 with
   | [ (1, a); (3, b) ] ->
     check_float "sorted col a" (-1.) a;
     check_float "sorted col b" 1. b
   | _ -> Alcotest.fail "column structure");
  Alcotest.(check (list (pair int (float 0.)))) "empty col" [] (Testkit.Sparse.column m 1)

let test_sparse_residual () =
  let m = Numerics.Sparse.create ~rows:2 ~cols:2 in
  Numerics.Sparse.set m 0 0 1.;
  Numerics.Sparse.set m 1 1 1.;
  check_float "norm" 5. (Testkit.Sparse.residual_norm2 m [| 3.; 4. |])

(* {1 Network} *)

let toy_network () =
  (* A → B → ∅ with an uptake bound of 10. *)
  let net = Fba.Network.create ~metabolites:[| "A"; "B" |] () in
  let ex_a = Fba.Network.add_reaction net ~name:"EX_A" ~stoich:[ (0, 1.) ] ~lb:0. ~ub:10. in
  let conv = Fba.Network.add_reaction net ~name:"A2B" ~stoich:[ (0, -1.); (1, 1.) ] ~lb:0. ~ub:100. in
  let ex_b = Fba.Network.add_reaction net ~name:"EX_B" ~stoich:[ (1, -1.) ] ~lb:0. ~ub:100. in
  (net, ex_a, conv, ex_b)

let test_network_build () =
  let net, _, _, _ = toy_network () in
  Alcotest.(check int) "metabolites" 2 (Fba.Network.n_metabolites net);
  Alcotest.(check int) "reactions" 3 (Fba.Network.n_reactions net)

let test_network_violation () =
  let net, _, _, _ = toy_network () in
  check_float "balanced" 0. (Fba.Network.violation net [| 5.; 5.; 5. |]);
  Alcotest.(check bool) "unbalanced" true (Fba.Network.violation net [| 5.; 0.; 0. |] > 0.);
  let project = Fba.Network.projector net in
  List.iter
    (fun (what, f) ->
      match f [| 5.; 5. |] with
      | () -> Alcotest.failf "%s took a vector of the wrong length" what
      | exception Invalid_argument _ -> ())
    [ ("violation", fun v -> ignore (Fba.Network.violation net v)); ("projector", project) ]

let test_network_set_bounds () =
  let net, ex_a, _, _ = toy_network () in
  Fba.Network.set_bounds net ex_a 0. 3.;
  let lb, ub = (Fba.Network.bounds net).(ex_a) in
  check_float "lb" 0. lb;
  check_float "ub" 3. ub

let test_network_duplicate_name_rejected () =
  let net, _, _, _ = toy_network () in
  Alcotest.(check bool) "duplicate raises" true
    (try
       ignore (Fba.Network.add_reaction net ~name:"A2B" ~stoich:[] ~lb:0. ~ub:1.);
       false
     with Invalid_argument _ -> true)

let test_network_columns_cache () =
  let net, _, conv, _ = toy_network () in
  let s = Fba.Network.matrix net in
  Alcotest.(check bool) "built once" true (Fba.Network.matrix net == s);
  Alcotest.(check (list (pair int (float 0.)))) "column of S" [ (0, -1.); (1, 1.) ]
    (Testkit.Sparse.csc_column s conv);
  let r = Fba.Network.add_reaction net ~name:"B2A" ~stoich:[ (1, -1.); (0, 1.) ] ~lb:0. ~ub:1. in
  let s' = Fba.Network.matrix net in
  Alcotest.(check int) "rebuilt after add_reaction" 4 s'.Numerics.Sparse.cs_cols;
  Alcotest.(check (list (pair int (float 0.)))) "new column, sorted by row" [ (0, 1.); (1, -1.) ]
    (Testkit.Sparse.csc_column s' r)

(* {1 FBA} *)

let test_fba_toy_chain () =
  let net, _, _, ex_b = toy_network () in
  let sol = Fba.Analysis.fba ~t:net ~objective:ex_b in
  check_float ~tol:1e-6 "throughput = uptake bound" 10. sol.Fba.Analysis.objective;
  check_float ~tol:1e-6 "steady" 0. (Fba.Network.violation net sol.Fba.Analysis.fluxes)

let test_fba_branch_chooses_better () =
  (* A can go to B (worth 1) or C (worth 0): maximize EX_B. *)
  let net = Fba.Network.create ~metabolites:[| "A"; "B"; "C" |] () in
  let _ = Fba.Network.add_reaction net ~name:"EX_A" ~stoich:[ (0, 1.) ] ~lb:0. ~ub:4. in
  let _ = Fba.Network.add_reaction net ~name:"A2B" ~stoich:[ (0, -1.); (1, 1.) ] ~lb:0. ~ub:100. in
  let _ = Fba.Network.add_reaction net ~name:"A2C" ~stoich:[ (0, -1.); (2, 1.) ] ~lb:0. ~ub:100. in
  let ex_b = Fba.Network.add_reaction net ~name:"EX_B" ~stoich:[ (1, -1.) ] ~lb:0. ~ub:100. in
  let _ = Fba.Network.add_reaction net ~name:"EX_C" ~stoich:[ (2, -1.) ] ~lb:0. ~ub:100. in
  let sol = Fba.Analysis.fba ~t:net ~objective:ex_b in
  check_float ~tol:1e-6 "all carbon to B" 4. sol.Fba.Analysis.objective

let test_fva_toy () =
  let net, ex_a, conv, _ = toy_network () in
  (* Force some throughput so the chain is active: EX_B >= 2. *)
  Fba.Network.set_bounds net 2 2. 100.;
  (match Fba.Analysis.fva ~t:net ~reactions:[ ex_a; conv ] with
   | [ (_, (lo_a, hi_a)); (_, (lo_c, hi_c)) ] ->
     check_float ~tol:1e-6 "uptake min" 2. lo_a;
     check_float ~tol:1e-6 "uptake max" 10. hi_a;
     check_float ~tol:1e-6 "conv min" 2. lo_c;
     check_float ~tol:1e-6 "conv max" 10. hi_c
   | _ -> Alcotest.fail "fva shape")

let test_fba_infeasible_detected () =
  let net = Fba.Network.create ~metabolites:[| "A" |] () in
  (* A is produced at >= 1 but nothing consumes it: no steady state. *)
  let r = Fba.Network.add_reaction net ~name:"SRC" ~stoich:[ (0, 1.) ] ~lb:1. ~ub:2. in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Fba.Analysis.fba ~t:net ~objective:r);
       false
     with Fba.Analysis.Infeasible_model _ -> true)

let test_eps_sweep_restores_on_raise () =
  (* An out-of-range primary fails inside the sweep after the secondary
     is pinned at the level: the pin must still come off. *)
  let g = Fba.Geobacter.build () in
  let t = g.Fba.Geobacter.net in
  let before = Fba.Network.bounds t in
  let raised =
    match
      Fba.Analysis.epsilon_constraint ~t ~primary:100_000 ~secondary:g.Fba.Geobacter.bp
        ~levels:[ 0.29 ]
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "out-of-range primary raises" true raised;
  Alcotest.(check bool) "bounds restored" true (Fba.Network.bounds t = before)

(* {1 Geobacter model} *)

let model = lazy (Fba.Geobacter.build ())

let test_geobacter_scale () =
  let g = Lazy.force model in
  Alcotest.(check int) "608 reactions" 608 (Fba.Network.n_reactions g.Fba.Geobacter.net);
  Alcotest.(check bool) "hundreds of metabolites" true
    (Fba.Network.n_metabolites g.Fba.Geobacter.net > 300)

let test_geobacter_atpm_fixed () =
  let g = Lazy.force model in
  let lb, ub = (Fba.Network.bounds g.Fba.Geobacter.net).(g.Fba.Geobacter.atpm) in
  check_float "lb 0.45" 0.45 lb;
  check_float "ub 0.45" 0.45 ub

let test_geobacter_deterministic () =
  let a = Fba.Geobacter.build () in
  let b = Fba.Geobacter.build () in
  Alcotest.(check int) "same size" (Fba.Network.n_reactions a.Fba.Geobacter.net)
    (Fba.Network.n_reactions b.Fba.Geobacter.net);
  let ra = Fba.Network.reaction a.Fba.Geobacter.net 300 in
  let rb = Fba.Network.reaction b.Fba.Geobacter.net 300 in
  Alcotest.(check string) "same decoys" ra.Fba.Network.name rb.Fba.Network.name

let test_geobacter_ep_window () =
  let g = Lazy.force model in
  let sol = Fba.Analysis.fba ~t:g.Fba.Geobacter.net ~objective:g.Fba.Geobacter.ep in
  (* The paper's Figure 4 window: EP between ~158 and ~162. *)
  Alcotest.(check bool)
    (Printf.sprintf "max EP %.2f in window" sol.Fba.Analysis.objective)
    true
    (sol.Fba.Analysis.objective > 155. && sol.Fba.Analysis.objective < 165.)

let test_geobacter_bp_window () =
  let g = Lazy.force model in
  let sol = Fba.Analysis.fba ~t:g.Fba.Geobacter.net ~objective:g.Fba.Geobacter.bp in
  check_float ~tol:1e-3 "max BP = nh4 cap" 0.301 sol.Fba.Analysis.objective

let test_geobacter_tradeoff_slope () =
  let g = Lazy.force model in
  let sweep =
    Fba.Analysis.epsilon_constraint ~t:g.Fba.Geobacter.net ~primary:g.Fba.Geobacter.ep
      ~secondary:g.Fba.Geobacter.bp ~levels:[ 0.283; 0.300 ]
  in
  match sweep with
  | [ (ep_lo_bp, _); (ep_hi_bp, _) ] ->
    Alcotest.(check bool) "EP falls as BP rises" true (ep_lo_bp > ep_hi_bp);
    let slope = (ep_lo_bp -. ep_hi_bp) /. (0.300 -. 0.283) in
    (* Paper's A–E points imply ~160 electrons per biomass unit. *)
    Alcotest.(check bool) (Printf.sprintf "slope %.0f in [100, 250]" slope) true
      (slope > 100. && slope < 250.)
  | _ -> Alcotest.fail "sweep failed"

(* {1 Geobacter MOO wrapper} *)

let test_problem_dimensions () =
  let g = Lazy.force model in
  let p = Fba.Moo_problem.problem g in
  Alcotest.(check int) "608 vars" 608 p.Moo.Problem.n_var;
  Alcotest.(check int) "2 objectives" 2 p.Moo.Problem.n_obj

let test_seeds_feasible_and_ordered () =
  let g = Lazy.force model in
  let seeds = Fba.Moo_problem.seeds g ~levels:[ 0.283; 0.301 ] in
  Alcotest.(check int) "two seeds" 2 (List.length seeds);
  List.iter
    (fun s ->
      Alcotest.(check bool) "feasible" true (s.Moo.Solution.v <= 1e-9);
      Alcotest.(check bool) "EP in window" true
        (Fba.Moo_problem.ep_of s > 155. && Fba.Moo_problem.ep_of s < 165.))
    seeds

let test_repair_reduces_violation () =
  let g = Lazy.force model in
  let rng = Numerics.Rng.create 41 in
  let p = Fba.Moo_problem.problem g in
  let raw = Moo.Problem.random_solution p rng in
  let before = Fba.Network.violation g.Fba.Geobacter.net raw in
  let fixed = Array.copy raw in
  Fba.Moo_problem.repair g fixed;
  let after = Fba.Network.violation g.Fba.Geobacter.net fixed in
  Alcotest.(check bool)
    (Printf.sprintf "repair %.3g -> %.3g" before after)
    true (after < before /. 10.)

let test_flux_variation_keeps_near_feasible () =
  let g = Lazy.force model in
  let seeds = Fba.Moo_problem.seeds g ~levels:[ 0.283; 0.301 ] in
  match seeds with
  | [ a; b ] ->
    let vary = Fba.Moo_problem.flux_variation g () in
    let rng = Numerics.Rng.create 42 in
    for _ = 1 to 20 do
      let c1, c2 = vary rng a.Moo.Solution.x b.Moo.Solution.x in
      let v1 = Fba.Network.violation g.Fba.Geobacter.net c1 in
      let v2 = Fba.Network.violation g.Fba.Geobacter.net c2 in
      if v1 > 0.5 || v2 > 0.5 then Alcotest.failf "child violation too big: %g %g" v1 v2
    done
  | _ -> Alcotest.fail "seeds missing"

(* {1 Null-space projector} *)

(* S as a Hashtbl-backed [Sparse.t], straight from the reaction list:
   the reference the compressed S in [Network] must reproduce. *)
let hashtbl_s net =
  let s =
    Numerics.Sparse.create ~rows:(Fba.Network.n_metabolites net) ~cols:(Fba.Network.n_reactions net)
  in
  for j = 0 to Fba.Network.n_reactions net - 1 do
    List.iter (fun (i, v) -> Numerics.Sparse.set s i j v) (Fba.Network.reaction net j).Fba.Network.stoich
  done;
  s

(* Dense reference: v − Sᵀ(S·Sᵀ + 1e-9·I)⁻¹·S·v with a dense Gram
   product and a partial-pivoting dense LU. *)
let dense_projector net =
  let s =
    Testkit.Sparse.to_dense ~rows:(Fba.Network.n_metabolites net)
      ~cols:(Fba.Network.n_reactions net) (hashtbl_s net)
  in
  let gram = Testkit.Matrix.matmul s (Testkit.Matrix.transpose s) in
  for i = 0 to Testkit.Matrix.rows gram - 1 do
    Testkit.Matrix.set gram i i (Testkit.Matrix.get gram i i +. 1e-9)
  done;
  let lu = Testkit.Lu.factor gram in
  fun v ->
    let y = Testkit.Lu.solve lu (Testkit.Matrix.mv s v) in
    let correction = Testkit.Matrix.tmv s y in
    Array.mapi (fun j vj -> vj -. correction.(j)) v

let random_flux net rng =
  Array.map
    (fun (lo, hi) -> Numerics.Rng.uniform rng (Float.max lo (-1000.)) (Float.min hi 1000.))
    (Fba.Network.bounds net)

(* The projection of a copy of [v], and [repair g] on a copy. *)
let projected net =
  let project = Fba.Network.projector net in
  fun v ->
    let c = Array.copy v in
    project c;
    c

let repaired g =
  let repair = Fba.Moo_problem.repair g in
  fun v ->
    let c = Array.copy v in
    repair c;
    c

(* 20 seeded flux vectors and 20 repaired parents built from them. *)
let variation_inputs g =
  let net = g.Fba.Geobacter.net in
  let rng = Numerics.Rng.create 2011 in
  let raw = Array.init 20 (fun _ -> random_flux net rng) in
  (raw, Array.map (repaired g) raw)

(* 40 children: [flux_variation] on consecutive parent pairs. *)
let variation_children g parents ~rng =
  let vary = Fba.Moo_problem.flux_variation g () in
  let n = Array.length parents in
  List.concat
    (List.init n (fun k ->
         let a, b = vary rng parents.(k) parents.((k + 1) mod n) in
         [ a; b ]))

let test_projector_matches_dense () =
  let g = Lazy.force model in
  let net = g.Fba.Geobacter.net in
  let sparse = projected net in
  let dense = dense_projector net in
  let rng = Numerics.Rng.create 101 in
  for k = 1 to 20 do
    let v = random_flux net rng in
    let ps = sparse v and pd = dense v in
    let scale = Float.max 1. (Testkit.Vec.norm_inf pd) in
    let err = Testkit.Vec.norm_inf (Testkit.Vec.sub ps pd) /. scale in
    if err > 1e-9 then Alcotest.failf "vector %d: sparse vs dense relative error %g" k err;
    let vs = Fba.Network.violation net ps and vd = Fba.Network.violation net pd in
    (* ‖S·v‖ after projection sits at the ridge floor, ~1e-8·‖v‖, so the
       ~1e-13 relative difference between the two solves moves it by up
       to ~1e-6 of itself: "no larger" is judged past that rounding. *)
    if vs > vd *. (1. +. 1e-5) then
      Alcotest.failf "vector %d: ||S v|| %g after sparse > %g after dense" k vs vd
  done

let test_violation_matches_hashtbl () =
  let g = Lazy.force model in
  let net = g.Fba.Geobacter.net in
  let s = hashtbl_s net in
  let rng = Numerics.Rng.create 303 in
  for k = 1 to 20 do
    let v = random_flux net rng in
    let old = Testkit.Sparse.residual_norm2 s v and now = Fba.Network.violation net v in
    if not (Float.equal old now) then Alcotest.failf "vector %d: violation %h vs Hashtbl %h" k now old
  done

(* The exact bits of the Geobacter variation path: the projection of 20
   seeded flux vectors, the violation of each before and after it, and
   40 [flux_variation] children.  The hashes were recorded with the
   allocating projector, [violation] and operator that the per-domain
   workspace replaced, so a change that reorders any sum on this path
   fails the matching section by name. *)
let test_variation_bits () =
  let g = Lazy.force model in
  let net = g.Fba.Geobacter.net in
  let raw, parents = variation_inputs g in
  let proj = Array.map (projected net) raw in
  let children = variation_children g parents ~rng:(Numerics.Rng.create 2012) in
  let flat vs = List.concat_map Array.to_list vs in
  let sections =
    [
      ("projection", flat (Array.to_list proj));
      ("violation", List.map (Fba.Network.violation net) (Array.to_list raw @ Array.to_list proj));
      ("variation children", flat children);
    ]
  in
  let fnv values = Printf.sprintf "%Lx" (Cache.Fnv.hash (Array.of_list values)) in
  Alcotest.(check (list (pair string (pair int string))))
    "section value counts and FNV-1a of their bits"
    [
      ("projection", (12160, "dae37e4f7a1a2573"));
      ("violation", (40, "dd56bc5600612201"));
      ("variation children", (24320, "9cd7dd32dc7d5041"));
    ]
    (List.map (fun (name, values) -> (name, (List.length values, fnv values))) sections)

(* Words allocated so far.  [Gc.minor_words] is exact; [Gc.counters]'
   major words less its promoted ones are the words allocated straight
   on the major heap, the current slice's included.  ([Gc.counters]'
   own minor count lags the minor heap in use, and [Gc.quick_stat]
   leaves out the current slice's major words.) *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words [run] allocates per call, after one warm-up call: the window's
   count less that of an empty window, which the readings allocate. *)
let words_per_call ?(calls = 50) run =
  let window f =
    let w0 = words () in
    for _ = 1 to calls do
      f ()
    done;
    words () -. w0
  in
  run ();
  (window run -. window ignore) /. float_of_int calls

(* After a warm-up call has sized the domain's workspace, the projector
   and [violation] allocate nothing but [violation]'s boxed result, and
   a [flux_variation] call its two children (609 words each), their
   pair and the RNG's boxed draws: 1 418–1 421 words per call here,
   against 6 193, 443 and 52 071 when the projector's vectors, S·v and
   the blend were fresh arrays per call. *)
let test_variation_allocation () =
  let g = Lazy.force model in
  let net = g.Fba.Geobacter.net in
  let raw, parents = variation_inputs g in
  let project = Fba.Network.projector net in
  let vary = Fba.Moo_problem.flux_variation g () in
  let rng = Numerics.Rng.create 5 in
  let v = Array.copy raw.(0) in
  List.iter
    (fun (name, run, budget) ->
      let w = words_per_call run in
      if w > budget then Alcotest.failf "%s allocates %.1f words per call, budget %.0f" name w budget)
    [
      ("projector", (fun () -> project v), 0.);
      ("violation", (fun () -> ignore (Sys.opaque_identity (Fba.Network.violation net v))), 2.);
      ( "flux_variation",
        (fun () -> ignore (Sys.opaque_identity (vary rng parents.(0) parents.(1)))),
        1_500. );
    ]

(* One operator on one network, shared by two domains: each task draws
   a pair of children from its own stream and takes the violation of
   both, so projections and violations run in both domains at once.
   The pooled results must equal the sequential ones bit for bit; a
   workspace shared by the domains would mix their vectors. *)
let test_variation_two_domains () =
  let g = Lazy.force model in
  let net = g.Fba.Geobacter.net in
  let _, parents = variation_inputs g in
  let vary = Fba.Moo_problem.flux_variation g () in
  let n = Array.length parents in
  let task k =
    let a, b = vary (Numerics.Rng.stream ~seed:7 k) parents.(k mod n) parents.((k + 1) mod n) in
    [| a; b; [| Fba.Network.violation net a; Fba.Network.violation net b |] |]
  in
  let tasks = 64 in
  let sequential = Array.init tasks task in
  let pool = Parallel.Pool.create ~domains:2 () in
  let pooled =
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () -> Parallel.Pool.parallel_map pool ~n:tasks task)
  in
  Array.iteri
    (fun k expected ->
      if not (Array.for_all2 Cache.Fnv.equal expected pooled.(k)) then
        Alcotest.failf "task %d: the 2-domain pool's bits differ from the sequential run's" k)
    sequential

let test_initial_guess_violation_large () =
  let g = Lazy.force model in
  let v = random_flux g.Fba.Geobacter.net (Numerics.Rng.create 1) in
  Alcotest.(check bool) "initial guess far from steady state" true
    (Fba.Network.violation g.Fba.Geobacter.net v > 1e3)

(* {1 Knockout screening} *)

(* A branched toy network where knocking out a byproduct branch
   redirects flux to the target:
     EX_A -> A ; A -> B ; A -> C ; B -> target (EX_B) ; C -> waste (EX_C)
   with biomass drawing on B.  Removing A->C increases EX_B. *)
let branched () =
  let net = Fba.Network.create ~metabolites:[| "A"; "B"; "C" |] () in
  let _ = Fba.Network.add_reaction net ~name:"EX_A" ~stoich:[ (0, 1.) ] ~lb:0. ~ub:10. in
  let a2b = Fba.Network.add_reaction net ~name:"A2B" ~stoich:[ (0, -1.); (1, 1.) ] ~lb:0. ~ub:4. in
  let a2c = Fba.Network.add_reaction net ~name:"A2C" ~stoich:[ (0, -1.); (2, 1.) ] ~lb:0. ~ub:100. in
  (* A second, less direct route to B so the A2B cap is not absolute. *)
  let c2b = Fba.Network.add_reaction net ~name:"C2B" ~stoich:[ (2, -1.); (1, 1.) ] ~lb:0. ~ub:2. in
  let ex_b = Fba.Network.add_reaction net ~name:"EX_B" ~stoich:[ (1, -1.) ] ~lb:0. ~ub:100. in
  let ex_c = Fba.Network.add_reaction net ~name:"EX_C" ~stoich:[ (2, -1.) ] ~lb:0. ~ub:100. in
  let biomass = Fba.Network.add_reaction net ~name:"BIO" ~stoich:[ (1, -0.5) ] ~lb:0. ~ub:100. in
  (net, a2b, a2c, c2b, ex_b, ex_c, biomass)

let test_knockout_baseline () =
  let net, _, _, _, ex_b, _, biomass = branched () in
  (* The wild-type optimum under the biomass floor, as the knockout
     screens' parent LP and Fig. 4's sweep pose it. *)
  match Fba.Analysis.epsilon_constraint ~t:net ~primary:ex_b ~secondary:biomass ~levels:[ 1. ] with
  | [ (target, level) ] ->
    Alcotest.(check bool) "biomass floor respected" true (level >= 1. -. 1e-6);
    Alcotest.(check bool) "positive target" true (target > 0.)
  | _ -> Alcotest.fail "wild type infeasible under the biomass floor"

let test_knockout_single_improves () =
  let net, _, _, _, ex_b, ex_c, biomass = branched () in
  let base =
    match Fba.Analysis.epsilon_constraint ~t:net ~primary:ex_b ~secondary:biomass ~levels:[ 0.5 ] with
    | [ (target, _) ] -> target
    | _ -> Alcotest.fail "wild type infeasible under the biomass floor"
  in
  let kos =
    Fba.Knockout.single ~t:net ~target:ex_b ~biomass ~min_biomass:0.5 ~candidates:[ ex_c ]
  in
  match kos with
  | [ k ] ->
    (* Closing the waste exit forces C through C2B into the target. *)
    Alcotest.(check bool)
      (Printf.sprintf "knockout %.3f >= baseline %.3f" k.Fba.Knockout.target_flux base)
      true
      (k.Fba.Knockout.target_flux >= base)
  | _ -> Alcotest.fail "one knockout expected"

let test_knockout_lethal_dropped () =
  let net, a2b, _, c2b, ex_b, _, biomass = branched () in
  (* Removing both routes to B kills the biomass floor → dropped. *)
  let kos =
    Fba.Knockout.pairs ~t:net ~target:ex_b ~biomass ~min_biomass:0.5
      ~candidates:[ a2b; c2b ]
  in
  Alcotest.(check int) "lethal pair dropped" 0 (List.length kos)

let test_knockout_restores_bounds () =
  let net, _, a2c, _, ex_b, _, biomass = branched () in
  let before = Fba.Network.bounds net in
  ignore (Fba.Knockout.single ~t:net ~target:ex_b ~biomass ~min_biomass:0.5 ~candidates:[ a2c ]);
  let after = Fba.Network.bounds net in
  Array.iteri
    (fun j (lb, ub) ->
      let lb', ub' = after.(j) in
      check_float ~tol:1e-9 (Printf.sprintf "lb %d" j) lb lb';
      check_float ~tol:1e-9 (Printf.sprintf "ub %d" j) ub ub')
    before

(* The real model: every knockout the warm screens report must match a
   cold FBA under the same pins and biomass floor, the dropped sets must
   be exactly the cold-infeasible ones, and the network must come back
   unchanged.  Acetate uptake rides along as a known lethal knockout. *)
let test_knockout_geobacter_matches_cold () =
  let g = Fba.Geobacter.build () in
  let t = g.Fba.Geobacter.net in
  let target = g.Fba.Geobacter.ep and biomass = g.Fba.Geobacter.bp in
  let min_biomass = 0.1 in
  let pool =
    Array.of_list
      (List.filter
         (fun j -> j <> target && j <> biomass && j <> g.Fba.Geobacter.ex_acetate)
         (List.init (Fba.Network.n_reactions t) Fun.id))
  in
  let rng = Numerics.Rng.create 2024 in
  let drawn =
    Array.to_list
      (Array.map (fun i -> pool.(i))
         (Numerics.Rng.sample_indices rng ~n:(Array.length pool) ~k:19))
  in
  let singles = g.Fba.Geobacter.ex_acetate :: drawn in
  let pair_candidates = List.filteri (fun i _ -> i < 6) singles in
  let before = Fba.Network.bounds t in
  let cold removed =
    let saved = Fba.Network.bounds t in
    List.iter (fun j -> Fba.Network.set_bounds t j 0. 0.) removed;
    let lb, ub = saved.(biomass) in
    Fba.Network.set_bounds t biomass (Float.max lb min_biomass) ub;
    let r =
      match Fba.Analysis.fba ~t ~objective:target with
      | s -> Some s.Fba.Analysis.objective
      | exception Fba.Analysis.Infeasible_model _ -> None
    in
    Array.iteri (fun j (lb, ub) -> Fba.Network.set_bounds t j lb ub) saved;
    r
  in
  let check_screen label sets reported =
    let expected = List.filter_map (fun s -> Option.map (fun v -> (s, v)) (cold s)) sets in
    Alcotest.(check bool) (label ^ ": a lethal set is screened") true
      (List.length expected < List.length sets);
    Alcotest.(check (list (list int)))
      (label ^ ": dropped sets = cold-infeasible")
      (List.sort compare (List.map fst expected))
      (List.sort compare (List.map (fun k -> k.Fba.Knockout.removed) reported));
    List.iter
      (fun k ->
        let v = List.assoc k.Fba.Knockout.removed expected in
        let rel = Float.abs (k.Fba.Knockout.target_flux -. v) /. Float.max 1. (Float.abs v) in
        if rel > 1e-9 then
          Alcotest.failf "%s: knockout {%s} target %.17g vs cold %.17g" label
            (String.concat ", " (List.map string_of_int k.Fba.Knockout.removed))
            k.Fba.Knockout.target_flux v)
      reported
  in
  let single = Fba.Knockout.single ~t ~target ~biomass ~min_biomass ~candidates:singles in
  let pairs = Fba.Knockout.pairs ~t ~target ~biomass ~min_biomass ~candidates:pair_candidates in
  Alcotest.(check bool) "bounds restored" true (Fba.Network.bounds t = before);
  check_screen "singles" (List.map (fun j -> [ j ]) singles) single;
  let rec all_pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> [ x; y ]) rest @ all_pairs rest
  in
  check_screen "pairs" (all_pairs pair_candidates) pairs

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
      check_float ~tol:1e-9 "lb" lb lb';
      check_float ~tol:1e-9 "ub" ub ub')
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

(* {1 LP and sparse-LU bits} *)

(* [A x = b] through the in-place kernel; [b] is consumed. *)
let solve lu b =
  let x = Array.make (Array.length b) 0. in
  Numerics.Sparse_lu.solve_into lu b x;
  x

(* [Aᵀ y = c] through the in-place kernel; [c] is consumed. *)
let solve_t lu c =
  let y = Array.make (Array.length c) 0. in
  Numerics.Sparse_lu.solve_t_into lu c y;
  y

(* The exact bits of the Geobacter LP campaign (ε-sweep, FVA, single and
   pair knockout screens, the EP-optimal flux vector) and of one
   [Sparse_lu] solve each way on the projector's S·Sᵀ + λI.  Every warm
   path of the simplex runs here, so a kernel change that moves any last
   bit of any of them fails the matching section by name. *)
let test_lp_bits () =
  let g = Fba.Geobacter.build () in
  let t = g.Fba.Geobacter.net in
  let ep = g.Fba.Geobacter.ep and bp = g.Fba.Geobacter.bp in
  let n = Fba.Network.n_reactions t in
  let every k = List.filter (fun j -> j mod k = 0 && j <> ep && j <> bp) (List.init n Fun.id) in
  let knockouts ks =
    List.concat_map
      (fun k ->
        List.map float_of_int k.Fba.Knockout.removed
        @ [ k.Fba.Knockout.target_flux; k.Fba.Knockout.biomass_flux ])
      ks
  in
  let eps =
    Fba.Analysis.epsilon_constraint ~t ~primary:ep ~secondary:bp
      ~levels:(List.init 8 (fun i -> 0.28 +. (0.003 *. float_of_int i)))
  in
  let fva = Fba.Analysis.fva ~t ~reactions:(every 8) in
  let min_biomass = 0.1 in
  let single =
    Fba.Knockout.single ~t ~target:ep ~biomass:bp ~min_biomass ~candidates:(every 6)
  in
  let pairs =
    Fba.Knockout.pairs ~t ~target:ep ~biomass:bp ~min_biomass ~candidates:(every 40)
  in
  let s = Numerics.Sparse.compress (hashtbl_s t) in
  let lu = Numerics.Sparse_lu.factor (Numerics.Sparse.csc_gram ~ridge:1e-9 s) in
  let rng = Numerics.Rng.create 19 in
  let rhs () = Array.init (Fba.Network.n_metabolites t) (fun _ -> Numerics.Rng.uniform rng (-1.) 1.) in
  let sections =
    [
      ("eps sweep", List.concat_map (fun (p, l) -> [ p; l ]) eps);
      ("fva", List.concat_map (fun (j, (lo, hi)) -> [ float_of_int j; lo; hi ]) fva);
      ("single knockouts", knockouts single);
      ("pair knockouts", knockouts pairs);
      ("ep fluxes", Array.to_list (Fba.Analysis.fba ~t ~objective:ep).Fba.Analysis.fluxes);
      ("sparse_lu solve", Array.to_list (solve lu (rhs ())));
      ("sparse_lu solve_t", Array.to_list (solve_t lu (rhs ())));
    ]
  in
  let fnv values = Printf.sprintf "%Lx" (Cache.Fnv.hash (Array.of_list values)) in
  Alcotest.(check (list (pair string (pair int string))))
    "section value counts and FNV-1a of their bits"
    [
      ("eps sweep", (16, "b92678b0fded9ee"));
      ("fva", (225, "fb91a947b75c35ef"));
      ("single knockouts", (297, "9b443c32d351ed6c"));
      ("pair knockouts", (420, "4380814a36cef0e1"));
      ("ep fluxes", (608, "929e497ab68925d3"));
      ("sparse_lu solve", (438, "f7c2add3fed62c3"));
      ("sparse_lu solve_t", (438, "967221f71599432b"));
    ]
    (List.map (fun (name, values) -> (name, (List.length values, fnv values))) sections)

let () =
  Alcotest.run "fba"
    [
      ( "sparse",
        [
          Alcotest.test_case "set/get" `Quick test_sparse_set_get;
          Alcotest.test_case "mv" `Quick test_sparse_mv;
          Alcotest.test_case "tmv vs dense" `Quick test_sparse_tmv_matches_dense;
          Alcotest.test_case "column" `Quick test_sparse_column;
          Alcotest.test_case "residual norm" `Quick test_sparse_residual;
        ] );
      ( "network",
        [
          Alcotest.test_case "build" `Quick test_network_build;
          Alcotest.test_case "violation" `Quick test_network_violation;
          Alcotest.test_case "set bounds" `Quick test_network_set_bounds;
          Alcotest.test_case "duplicate name" `Quick test_network_duplicate_name_rejected;
          Alcotest.test_case "add_reaction drops the column cache" `Quick
            test_network_columns_cache;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "toy chain fba" `Quick test_fba_toy_chain;
          Alcotest.test_case "branch selection" `Quick test_fba_branch_chooses_better;
          Alcotest.test_case "fva" `Quick test_fva_toy;
          Alcotest.test_case "infeasible detected" `Quick test_fba_infeasible_detected;
          Alcotest.test_case "eps sweep restores bounds on raise" `Quick
            test_eps_sweep_restores_on_raise;
        ] );
      ( "geobacter",
        [
          Alcotest.test_case "scale" `Quick test_geobacter_scale;
          Alcotest.test_case "atpm fixed at 0.45" `Quick test_geobacter_atpm_fixed;
          Alcotest.test_case "deterministic" `Quick test_geobacter_deterministic;
          Alcotest.test_case "max EP window" `Slow test_geobacter_ep_window;
          Alcotest.test_case "max BP window" `Slow test_geobacter_bp_window;
          Alcotest.test_case "trade-off slope" `Slow test_geobacter_tradeoff_slope;
        ] );
      ( "moo-wrapper",
        [
          Alcotest.test_case "dimensions" `Quick test_problem_dimensions;
          Alcotest.test_case "fba seeds" `Slow test_seeds_feasible_and_ordered;
          Alcotest.test_case "repair reduces violation" `Quick test_repair_reduces_violation;
          Alcotest.test_case "variation near-feasible" `Slow test_flux_variation_keeps_near_feasible;
          Alcotest.test_case "initial guess violation" `Quick test_initial_guess_violation_large;
        ] );
      ( "projector",
        [
          Alcotest.test_case "sparse = dense reference" `Quick test_projector_matches_dense;
          Alcotest.test_case "violation = Hashtbl residual" `Quick test_violation_matches_hashtbl;
          Alcotest.test_case "variation path bits" `Quick test_variation_bits;
          Alcotest.test_case "allocation" `Quick test_variation_allocation;
          Alcotest.test_case "2-domain pool = sequential" `Quick test_variation_two_domains;
        ] );
      ( "knockout",
        [
          Alcotest.test_case "baseline" `Quick test_knockout_baseline;
          Alcotest.test_case "single improves" `Quick test_knockout_single_improves;
          Alcotest.test_case "lethal dropped" `Quick test_knockout_lethal_dropped;
          Alcotest.test_case "bounds restored" `Quick test_knockout_restores_bounds;
          Alcotest.test_case "geobacter = cold FBA" `Quick
            test_knockout_geobacter_matches_cold;
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
      ("lp-bits", [ Alcotest.test_case "geobacter campaign and projector solves" `Quick test_lp_bits ]);
    ]
