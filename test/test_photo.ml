(* Tests for the C3 carbon-metabolism kinetic model. *)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let present_low = Photo.Params.present ~tp_export:Photo.Params.low_export
let ones () = Array.make Photo.Enzyme.count 1.

(* {1 Enzyme table} *)

let test_enzyme_count () = Alcotest.(check int) "23 enzymes" 23 Photo.Enzyme.count

let test_enzyme_names_match_figure2 () =
  (* Spot-check the Figure 2 ordering. *)
  Alcotest.(check string) "first" "Rubisco" Photo.Enzyme.names.(0);
  Alcotest.(check string) "SBPase position" "SBPase" Photo.Enzyme.names.(Photo.Enzyme.idx_sbpase);
  Alcotest.(check string) "last" "F26BPase" Photo.Enzyme.names.(22)

let test_enzyme_positive_data () =
  Array.iter
    (fun e ->
      Alcotest.(check bool) "positive mw" true (e.Photo.Enzyme.mw_kda > 0.);
      Alcotest.(check bool) "positive kcat" true (e.Photo.Enzyme.kcat > 0.);
      Alcotest.(check bool) "positive vmax" true (e.Photo.Enzyme.vmax_natural > 0.))
    Photo.Enzyme.all

let test_vmax_of_ratios () =
  let v = Photo.Enzyme.vmax_of_ratios (Array.make 23 2.) in
  Array.iteri
    (fun i vi -> check_float "doubled" (2. *. Photo.Enzyme.all.(i).Photo.Enzyme.vmax_natural) vi)
    v

let test_nitrogen_linear_in_ratios () =
  let n1 = Photo.Enzyme.raw_nitrogen (Photo.Enzyme.natural_vmax ()) in
  let n2 = Photo.Enzyme.raw_nitrogen (Photo.Enzyme.vmax_of_ratios (Array.make 23 2.)) in
  check_float ~tol:1e-6 "linearity" (2. *. n1) n2

let test_rubisco_dominates_nitrogen () =
  (* The paper discusses Rubisco's nitrogen-reservoir role: it must carry
     the majority of the natural leaf's protein nitrogen. *)
  let natural = Photo.Enzyme.natural_vmax () in
  let total = Photo.Enzyme.raw_nitrogen natural in
  let without = Array.copy natural in
  without.(Photo.Enzyme.idx_rubisco) <- 0.;
  let rest = Photo.Enzyme.raw_nitrogen without in
  Alcotest.(check bool) "rubisco majority share" true ((total -. rest) /. total > 0.5)

(* {1 Conditions} *)

let test_six_conditions () =
  Alcotest.(check int) "six" 6 (List.length Photo.Params.six_conditions);
  let cis =
    List.sort_uniq compare (List.map (fun e -> e.Photo.Params.ci) Photo.Params.six_conditions)
  in
  Alcotest.(check (list (float 1e-9))) "ci grid" [ 165.; 270.; 490. ] cis

(* {1 State and conservation} *)

let test_state_layout () =
  Alcotest.(check int) "24 states" 24 Photo.State.n;
  Alcotest.(check int) "names match" Photo.State.n (Array.length Photo.State.names)

let test_initial_positive () =
  Array.iter
    (fun v -> Alcotest.(check bool) "non-negative initial" true (v >= 0.))
    (Photo.State.initial ())

let test_stromal_pi_positive () =
  let pi = Photo.State.stromal_pi Photo.Params.default (Photo.State.initial ()) in
  Alcotest.(check bool) "pi positive" true (pi > 0.)

let test_phosphate_conservation_in_rhs () =
  (* d/dt (Pi + Σ nᵢ·yᵢ) = 0 away from the re-seeding/scavenging fluxes:
     check the phosphate-weighted derivative matches the explicit
     source/sink terms exactly. *)
  let k = Photo.Params.default in
  let vmax = Photo.Enzyme.natural_vmax () in
  let y = Photo.State.initial () in
  let dy = Array.make Photo.State.n nan in
  Photo.Model.rhs k present_low ~vmax 0. y dy;
  let f = Photo.Model.fluxes k present_low ~vmax y in
  let weighted = ref 0. in
  Array.iteri (fun i g -> weighted := !weighted +. (g *. dy.(i))) Photo.State.phosphate_groups;
  (* Bound phosphate changes by: -v_light + v_gapdh + v_fbpase + v_sbpase
     + v_pgcapase + export - stdeg + scavenging... — rather than
     re-deriving every term, assert the weighted derivative equals
     (total P)' = 0 minus the free-Pi derivative, i.e. the free Pi
     implied at t and t+dt stays within the conserved total. *)
  let ydt = Array.mapi (fun i yi -> yi +. (1e-4 *. dy.(i))) y in
  let pi0 = Photo.State.stromal_pi k y and pi1 = Photo.State.stromal_pi k ydt in
  let dpi = (pi1 -. pi0) /. 1e-4 in
  check_float ~tol:1e-6 "free Pi balances bound P" (-. !weighted) dpi;
  ignore f

let test_carbon_balance_at_steady_state () =
  let r = Photo.Steady_state.natural ~env:present_low () in
  Alcotest.(check bool) "converged" true r.Photo.Steady_state.converged;
  let cb = Photo.Model.carbon_balance r.Photo.Steady_state.fluxes in
  Alcotest.(check bool) (Printf.sprintf "carbon closed (%.2e)" cb) true (Float.abs cb < 5e-3)

let test_fluxes_nonnegative () =
  let k = Photo.Params.default in
  let vmax = Photo.Enzyme.natural_vmax () in
  let f = Photo.Model.fluxes k present_low ~vmax (Photo.State.initial ()) in
  let open Photo.Model in
  List.iter
    (fun (name, v) ->
      if v < 0. then Alcotest.failf "negative flux %s = %g" name v)
    [
      ("vc", f.vc); ("vo", f.vo); ("pgak", f.v_pgak); ("gapdh", f.v_gapdh);
      ("fbpald", f.v_fbpald); ("fbpase", f.v_fbpase); ("tk1", f.v_tk1);
      ("tk2", f.v_tk2); ("sbald", f.v_sbald); ("sbpase", f.v_sbpase);
      ("prk", f.v_prk); ("adpgpp", f.v_adpgpp); ("export", f.v_export);
      ("gdc", f.v_gdc); ("light", f.v_light);
    ]

let test_oxygenation_ratio_tracks_ci () =
  let k = Photo.Params.default in
  let vmax = Photo.Enzyme.natural_vmax () in
  let y = Photo.State.initial () in
  let f_past = Photo.Model.fluxes k (Photo.Params.past ~tp_export:1.) ~vmax y in
  let f_future = Photo.Model.fluxes k (Photo.Params.future ~tp_export:1.) ~vmax y in
  let ratio f = f.Photo.Model.vo /. f.Photo.Model.vc in
  Alcotest.(check bool) "more photorespiration at low CO2" true
    (ratio f_past > ratio f_future)

(* {1 Steady state and calibration} *)

let test_natural_operating_point () =
  (* The paper's natural leaf: uptake 15.486 µmol m⁻² s⁻¹ at nitrogen
     208 330 mg l⁻¹ (Ci = 270, low export). *)
  let u, n = Photo.Leaf.natural_point present_low in
  check_float ~tol:0.05 "uptake" 15.486 u;
  check_float ~tol:50. "nitrogen" 208330. n

let test_ci_gradient () =
  let uptake env = fst (Photo.Leaf.natural_point env) in
  let past = uptake (Photo.Params.past ~tp_export:1.) in
  let present = uptake present_low in
  let future = uptake (Photo.Params.future ~tp_export:1.) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f < %.2f < %.2f" past present future)
    true
    (past < present && present < future)

let test_zero_enzymes_zero_uptake () =
  let r =
    Photo.Steady_state.evaluate ~env:present_low ~ratios:(Array.make 23 0.05) ()
  in
  Alcotest.(check bool) "uptake collapses" true (r.Photo.Steady_state.uptake < 3.)

let test_boost_regeneration_helps () =
  let base = Photo.Steady_state.natural ~env:present_low () in
  let boosted = ones () in
  List.iter (fun i -> boosted.(i) <- 2.)
    Photo.Enzyme.[ idx_sbpase; idx_fbp_aldolase; idx_fbpase; idx_aldolase; idx_transketolase; idx_adpgpp ];
  let r = Photo.Steady_state.evaluate ~env:present_low ~ratios:boosted () in
  Alcotest.(check bool) "regeneration is limiting" true
    (r.Photo.Steady_state.uptake > base.Photo.Steady_state.uptake +. 1.)

let test_uptake_headroom () =
  (* The paper reports a robust maximum of 36.4 and an absolute maximum of
     ~40 µmol m⁻² s⁻¹ — the model must have at least 2.2× headroom within
     the decision box. *)
  let r =
    Photo.Steady_state.evaluate ~env:present_low
      ~ratios:(Array.make 23 Photo.Leaf.ratio_max) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "all-max uptake %.1f > 34" r.Photo.Steady_state.uptake)
    true
    (r.Photo.Steady_state.uptake > 34.)

let test_b_candidate_geometry () =
  (* A B-like design (reduced Rubisco, reduced photorespiration) must keep
     roughly the natural uptake at roughly half the nitrogen. *)
  let b = ones () in
  b.(Photo.Enzyme.idx_rubisco) <- 0.55;
  List.iter (fun i -> b.(i) <- 0.3)
    Photo.Enzyme.[ idx_pgcapase; idx_gcea_kinase; idx_goa_oxidase; idx_gsat;
                   idx_hpr_reductase; idx_ggat; idx_gdc ];
  let r = Photo.Steady_state.evaluate ~env:present_low ~ratios:b () in
  let u, n = Photo.Leaf.natural_point present_low in
  Alcotest.(check bool) "uptake preserved" true
    (Float.abs (r.Photo.Steady_state.uptake -. u) /. u < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "nitrogen %.0f below 60%% of natural" r.Photo.Steady_state.nitrogen)
    true
    (r.Photo.Steady_state.nitrogen < 0.6 *. n)

let test_warm_start_consistency () =
  (* Evaluating from the default initial state and from the natural
     steady state must agree on the uptake of a moderate design. *)
  let ratios = ones () in
  ratios.(Photo.Enzyme.idx_sbpase) <- 1.5;
  let cold = Photo.Steady_state.evaluate ~env:present_low ~ratios () in
  let warm_y = (Photo.Steady_state.natural ~env:present_low ()).Photo.Steady_state.y in
  let warm = Photo.Steady_state.evaluate ~y0:warm_y ~env:present_low ~ratios () in
  check_float ~tol:0.2 "same steady state"
    cold.Photo.Steady_state.uptake warm.Photo.Steady_state.uptake

let test_steady_state_is_steady () =
  (* A small persistent ATP/Pi oscillation (amplitude ~3e-3 mM/s) is part
     of the model's physiology; everything else must be quiet. *)
  let r = Photo.Steady_state.natural ~env:present_low () in
  let vmax = Photo.Enzyme.natural_vmax () in
  let dy = Array.make Photo.State.n nan in
  Photo.Model.rhs Photo.Params.default present_low ~vmax 0. r.Photo.Steady_state.y dy;
  Alcotest.(check bool) "small derivatives" true (Numerics.Vec.norm_inf dy < 8e-3);
  dy.(Photo.State.atp) <- 0.;
  Alcotest.(check bool) "non-adenylate states quiet" true (Numerics.Vec.norm_inf dy < 2e-3)

(* Exact results pinned by their bits: a change to the integrator or the
   rate laws that is meant to be a pure speedup must leave every one of
   these unchanged.  Hashes are FNV-1a over the IEEE-754 bits of the
   final state. *)
let check_bits name ~uptake ~converged ~state (r : Photo.Steady_state.report) =
  Alcotest.(check string) (name ^ " uptake") uptake (Printf.sprintf "%h" r.Photo.Steady_state.uptake);
  Alcotest.(check bool) (name ^ " converged") converged r.Photo.Steady_state.converged;
  Alcotest.(check string) (name ^ " state hash") state
    (Printf.sprintf "%Lx" (Cache.Fnv.hash r.Photo.Steady_state.y))

let test_natural_bits () =
  (* The 15.486 anchor at present Ci, low export: the PTC root. *)
  check_bits "natural" ~uptake:"0x1.ef9b3e7095672p+3" ~converged:true
    ~state:"6ee95279a2fb45f9"
    (Photo.Steady_state.natural ~env:present_low ())

let test_seeded_design_bits () =
  (* A design drawn over the whole [0.05, 3] box, relaxed from the
     natural state as the design problem does.  PTC finds no root for
     it, and the windowed fallback is still drifting at t_max, so this
     pins all 20 windows. *)
  let rng = Numerics.Rng.create 19 in
  let ratios =
    Array.init Photo.Enzyme.count (fun _ ->
        Numerics.Rng.uniform rng Photo.Leaf.ratio_min Photo.Leaf.ratio_max)
  in
  let y0 = (Photo.Steady_state.natural ~env:present_low ()).Photo.Steady_state.y in
  check_bits "seed 19" ~uptake:"0x1.bdcc63c310433p+2" ~converged:false
    ~state:"b4cb4f63f23c12b7"
    (Photo.Steady_state.evaluate ~y0 ~env:present_low ~ratios ())

let seeded_designs ~seed ~lo ~hi count =
  let rng = Numerics.Rng.create seed in
  Array.init count (fun _ ->
      Array.init Photo.Enzyme.count (fun _ -> Numerics.Rng.uniform rng lo hi))

let test_unacceptable_root_falls_back () =
  let fallbacks = Obs.Metrics.counter "photo.ptc_fallbacks" in
  let counted f =
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    let r = Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f in
    let n = Obs.Metrics.counter_value fallbacks in
    Obs.Metrics.reset ();
    (r, n)
  in
  (* Design 91 of a seed-7 draw over [0.05, 3] at past Ci, high export:
     PTC converges to a root within the pools, but one 20-unit window
     from it moves the uptake by 1.1e-3·(|u|+1), past the band. *)
  let env = Photo.Params.past ~tp_export:Photo.Params.high_export in
  let ratios = (seeded_designs ~seed:7 ~lo:0.05 ~hi:3. 91).(90) in
  let y0 = (Photo.Steady_state.natural ~env ()).Photo.Steady_state.y in
  let vmax = Photo.Enzyme.vmax_of_ratios ratios in
  let f = Photo.Model.rhs Photo.Params.default env ~vmax in
  (match (Numerics.Ode.pseudo_transient ~f ~y0 ()).Numerics.Ode.root with
  | Some root ->
    Alcotest.(check bool) "root within the adenylate pool" true
      (root.(Photo.State.atp) <= Photo.Params.default.Photo.Params.adenylate_total)
  | None -> Alcotest.fail "PTC found no root");
  let r, n = counted (fun () -> Photo.Steady_state.evaluate ~y0 ~env ~ratios ()) in
  Alcotest.(check int) "window rejection falls back" 1 n;
  Alcotest.(check bool) "finite fallback report" true (Float.is_finite r.Photo.Steady_state.uptake);
  (* A start far outside the pools (ATP ~1e6 mM against a 1.5 mM
     adenylate total): PTC finds no root, and the fallback is counted. *)
  let poisoned = Array.copy y0 in
  poisoned.(Photo.State.atp) <- 1.4e6;
  poisoned.(Photo.State.s7p) <- 8e5;
  let _, n =
    counted (fun () -> Photo.Steady_state.evaluate ~y0:poisoned ~env ~ratios:(ones ()) ())
  in
  Alcotest.(check int) "out-of-bounds start falls back" 1 n

let test_ptc_matches_long_relaxation () =
  (* Designs the windowed loop leaves unconverged at t_max (two within
     ±50 % of natural, two over [0.05, 3]; Rng seed 7, relaxed from the
     natural state): PTC's report converges and agrees with a t = 3 000
     integration within 1e-3·(|u|+1).  The windows' last uptakes were
     10.12, 13.46, 6.48 and 3.73. *)
  let y0 = (Photo.Steady_state.natural ~env:present_low ()).Photo.Steady_state.y in
  let narrow = seeded_designs ~seed:7 ~lo:0.5 ~hi:1.5 17 in
  let wide = seeded_designs ~seed:7 ~lo:0.05 ~hi:3. 14 in
  List.iter
    (fun (name, ratios) ->
      let r = Photo.Steady_state.evaluate ~y0 ~env:present_low ~ratios () in
      let vmax = Photo.Enzyme.vmax_of_ratios ratios in
      let k = Photo.Params.default in
      let f = Photo.Model.rhs k present_low ~vmax in
      let oracle, _ =
        Numerics.Ode.integrate_fallback ~rtol:1e-6 ~atol:1e-9 ~f ~t0:0. ~t1:3000. ~y0 ()
      in
      let u = Photo.Model.assimilation k (Photo.Model.fluxes k present_low ~vmax oracle.Numerics.Ode.y) in
      Alcotest.(check bool) (name ^ " converged") true r.Photo.Steady_state.converged;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f vs t = 3000 %.4f" name r.Photo.Steady_state.uptake u)
        true
        (Float.abs (r.Photo.Steady_state.uptake -. u) <= 1e-3 *. (Float.abs u +. 1.)))
    [
      ("±50% #9", narrow.(8));
      ("±50% #17", narrow.(16));
      ("[0.05, 3] #2", wide.(1));
      ("[0.05, 3] #14", wide.(13));
    ]

(* The rhs writes the 24 derivatives into the solver's vector; what it
   still allocates is the [fluxes] record (~42 words). *)
let test_rhs_allocation () =
  let f = Photo.Model.rhs Photo.Params.default present_low ~vmax:(Photo.Enzyme.natural_vmax ()) in
  let y = Photo.State.initial () and dy = Array.make Photo.State.n 0. in
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f 0. y dy
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per call <= 64" per_call) true
    (per_call <= 64.)

(* {1 Leaf problem wrapper} *)

let test_leaf_problem_shape () =
  let p = Photo.Leaf.problem present_low in
  Alcotest.(check int) "23 variables" 23 p.Moo.Problem.n_var;
  Alcotest.(check int) "2 objectives" 2 p.Moo.Problem.n_obj;
  Alcotest.(check (float 1e-9)) "lower" Photo.Leaf.ratio_min p.Moo.Problem.lower.(0);
  Alcotest.(check (float 1e-9)) "upper" Photo.Leaf.ratio_max p.Moo.Problem.upper.(0)

let test_leaf_objectives_signs () =
  let p = Photo.Leaf.problem present_low in
  let s = Moo.Solution.evaluate p (ones ()) in
  Alcotest.(check bool) "uptake un-negated" true (Photo.Leaf.uptake_of s > 0.);
  Alcotest.(check bool) "nitrogen positive" true (Photo.Leaf.nitrogen_of s > 0.);
  check_float ~tol:0.1 "natural via problem" 15.486 (Photo.Leaf.uptake_of s)

let prop_nitrogen_monotone =
  QCheck.Test.make ~name:"nitrogen increases with any ratio" ~count:50
    QCheck.(pair (int_bound 22) (float_range 1.1 3.9))
    (fun (i, boost) ->
      let base = Array.make 23 1. in
      let up = Array.copy base in
      up.(i) <- boost;
      let k = Photo.Params.default in
      Photo.Enzyme.raw_nitrogen (Photo.Enzyme.vmax_of_ratios up) *. k.Photo.Params.nitrogen_scale
      > Photo.Enzyme.raw_nitrogen (Photo.Enzyme.vmax_of_ratios base)
        *. k.Photo.Params.nitrogen_scale)

let () =
  Alcotest.run "photo"
    [
      ( "enzymes",
        [
          Alcotest.test_case "count" `Quick test_enzyme_count;
          Alcotest.test_case "figure 2 names" `Quick test_enzyme_names_match_figure2;
          Alcotest.test_case "positive data" `Quick test_enzyme_positive_data;
          Alcotest.test_case "vmax scaling" `Quick test_vmax_of_ratios;
          Alcotest.test_case "nitrogen linearity" `Quick test_nitrogen_linear_in_ratios;
          Alcotest.test_case "rubisco nitrogen share" `Quick test_rubisco_dominates_nitrogen;
        ] );
      ("conditions", [ Alcotest.test_case "six conditions" `Quick test_six_conditions ]);
      ( "model",
        [
          Alcotest.test_case "state layout" `Quick test_state_layout;
          Alcotest.test_case "initial positive" `Quick test_initial_positive;
          Alcotest.test_case "stromal pi" `Quick test_stromal_pi_positive;
          Alcotest.test_case "phosphate conservation" `Quick test_phosphate_conservation_in_rhs;
          Alcotest.test_case "carbon balance at SS" `Slow test_carbon_balance_at_steady_state;
          Alcotest.test_case "fluxes non-negative" `Quick test_fluxes_nonnegative;
          Alcotest.test_case "photorespiration vs Ci" `Quick test_oxygenation_ratio_tracks_ci;
          Alcotest.test_case "rhs allocation" `Quick test_rhs_allocation;
        ] );
      ( "steady-state",
        [
          Alcotest.test_case "natural operating point" `Slow test_natural_operating_point;
          Alcotest.test_case "ci gradient" `Slow test_ci_gradient;
          Alcotest.test_case "starved designs collapse" `Slow test_zero_enzymes_zero_uptake;
          Alcotest.test_case "regeneration limits" `Slow test_boost_regeneration_helps;
          Alcotest.test_case "headroom to ~40" `Slow test_uptake_headroom;
          Alcotest.test_case "candidate-B geometry" `Slow test_b_candidate_geometry;
          Alcotest.test_case "warm-start consistency" `Slow test_warm_start_consistency;
          Alcotest.test_case "steady state is steady" `Slow test_steady_state_is_steady;
          Alcotest.test_case "natural leaf bits" `Quick test_natural_bits;
          Alcotest.test_case "seeded design bits" `Quick test_seeded_design_bits;
          Alcotest.test_case "unacceptable root falls back" `Quick test_unacceptable_root_falls_back;
          Alcotest.test_case "ptc matches t = 3000" `Slow test_ptc_matches_long_relaxation;
        ] );
      ( "leaf-problem",
        [
          Alcotest.test_case "problem shape" `Quick test_leaf_problem_shape;
          Alcotest.test_case "objective signs" `Slow test_leaf_objectives_signs;
          QCheck_alcotest.to_alcotest prop_nitrogen_monotone;
        ] );
    ]
