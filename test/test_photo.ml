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
  Alcotest.(check int) "24 states" 24 Photo.State.n

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

(* Net stromal/cytosolic carbon inflow minus sink outflow (mM s⁻¹ of C).
   Carbon enters via carboxylation and leaves via GDC decarboxylation,
   starch (6 C per ADPGPP flux), sucrose export (3 C per exported
   triose) and the serine drain (3 C); at steady state the interior
   pools are constant, so these must balance. *)
let carbon_balance (f : Photo.Model.fluxes) =
  f.vc +. (6. *. f.v_stdeg) -. f.v_gdc -. f.v_g6pdh -. (6. *. f.v_adpgpp)
  -. (3. *. f.v_export) -. (3. *. f.v_serleak) -. (6. *. f.v_scav_hp)
  -. (3. *. f.v_scav_tp) -. (5. *. f.v_scav_pp)

let test_carbon_balance_at_steady_state () =
  let r = Photo.Steady_state.natural present_low in
  Alcotest.(check bool) "converged" true r.Photo.Steady_state.converged;
  let cb = carbon_balance r.Photo.Steady_state.fluxes in
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
  let f_past = Photo.Model.fluxes k { Photo.Params.label = "past"; ci = 165.; tp_export = 1. } ~vmax y in
  let f_future = Photo.Model.fluxes k { Photo.Params.label = "future"; ci = 490.; tp_export = 1. } ~vmax y in
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
  let past = uptake { Photo.Params.label = "past"; ci = 165.; tp_export = 1. } in
  let present = uptake present_low in
  let future = uptake { Photo.Params.label = "future"; ci = 490.; tp_export = 1. } in
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
  let base = Photo.Steady_state.natural present_low in
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
  let warm_y = (Photo.Steady_state.natural present_low).Photo.Steady_state.y in
  let warm = Photo.Steady_state.evaluate ~y0:warm_y ~env:present_low ~ratios () in
  check_float ~tol:0.2 "same steady state"
    cold.Photo.Steady_state.uptake warm.Photo.Steady_state.uptake

let test_steady_state_is_steady () =
  (* A small persistent ATP/Pi oscillation (amplitude ~3e-3 mM/s) is part
     of the model's physiology; everything else must be quiet. *)
  let r = Photo.Steady_state.natural present_low in
  let vmax = Photo.Enzyme.natural_vmax () in
  let dy = Array.make Photo.State.n nan in
  Photo.Model.rhs Photo.Params.default present_low ~vmax 0. r.Photo.Steady_state.y dy;
  Alcotest.(check bool) "small derivatives" true (Testkit.Vec.norm_inf dy < 8e-3);
  dy.(Photo.State.atp) <- 0.;
  Alcotest.(check bool) "non-adenylate states quiet" true (Testkit.Vec.norm_inf dy < 2e-3)

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
  check_bits "natural" ~uptake:"0x1.ef9b3e7095229p+3" ~converged:true
    ~state:"ba4b8214aff6a7ed"
    (Photo.Steady_state.natural present_low)

let test_seeded_design_bits () =
  (* A design drawn over the whole [0.05, 3] box, relaxed from the
     natural state as the design problem does: PTC's certified root. *)
  let rng = Numerics.Rng.create 19 in
  let ratios =
    Array.init Photo.Enzyme.count (fun _ ->
        Numerics.Rng.uniform rng Photo.Leaf.ratio_min Photo.Leaf.ratio_max)
  in
  let y0 = (Photo.Steady_state.natural present_low).Photo.Steady_state.y in
  check_bits "seed 19" ~uptake:"0x1.bdd82d98a2466p+2" ~converged:true
    ~state:"5989b5e2c5d99640"
    (Photo.Steady_state.evaluate ~y0 ~env:present_low ~ratios ())

let seeded_designs ~seed ~lo ~hi count =
  let rng = Numerics.Rng.create seed in
  Array.init count (fun _ ->
      Array.init Photo.Enzyme.count (fun _ -> Numerics.Rng.uniform rng lo hi))

let fallbacks = Obs.Metrics.counter "photo.ptc_fallbacks"

(* [f ()] with the metrics on from zero, and the values [counters] reached. *)
let counts counters f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f in
  let n = List.map Obs.Metrics.counter_value counters in
  Obs.Metrics.reset ();
  (r, n)

let counted f =
  match counts [ fallbacks ] f with r, [ n ] -> (r, n) | _ -> assert false

let hex_hash y = Printf.sprintf "%Lx" (Cache.Fnv.hash y)

(* The two 32-bit halves of a state's FNV-1a hash, as exact floats. *)
let hash_halves y =
  let h = Cache.Fnv.hash y in
  [ Int64.to_float (Int64.shift_right_logical h 32); Int64.to_float (Int64.logand h 0xFFFF_FFFFL) ]

let test_sweep_bits () =
  (* Six designs per condition drawn over [0.05, 3] (Rng seed 2011), each
     relaxed from its condition's natural state: 35 certified roots from
     the natural state, and one design whose root is unstable and whose
     restart finds no certified root either.  The hash covers each
     report's uptake bits, [converged] and state hash. *)
  let rng = Numerics.Rng.create 2011 in
  let paths = Array.make 3 0 and bits = ref [] in
  List.iter
    (fun env ->
      let y0 = (Photo.Steady_state.natural env).Photo.Steady_state.y in
      for _ = 1 to 6 do
        let ratios =
          Array.init Photo.Enzyme.count (fun _ ->
              Numerics.Rng.uniform rng Photo.Leaf.ratio_min Photo.Leaf.ratio_max)
        in
        let r, fell_back = counted (fun () -> Photo.Steady_state.evaluate ~y0 ~env ~ratios ()) in
        let conv = r.Photo.Steady_state.converged in
        let path = if fell_back = 0 then 0 else if conv then 1 else 2 in
        paths.(path) <- paths.(path) + 1;
        bits :=
          List.rev_append
            (r.Photo.Steady_state.uptake :: (if conv then 1. else 0.) :: hash_halves r.y)
            !bits
      done)
    Photo.Params.six_conditions;
  Alcotest.(check (list int)) "root from y0, restart converged, restart unconverged" [ 35; 0; 1 ]
    (Array.to_list paths);
  Alcotest.(check string) "FNV-1a of the sweep" "fc43879b2e3d8dca"
    (hex_hash (Array.of_list (List.rev !bits)))

let test_ptc_root_bits () =
  (* One design per condition within ±10 % of natural (Rng seed 10),
     from the natural state: PTC's iteration count and the root the
     report carries. *)
  let iterations = Obs.Metrics.counter "ode.ptc.iterations" in
  let designs = seeded_designs ~seed:10 ~lo:0.9 ~hi:1.1 6 in
  let got =
    List.mapi
      (fun i env ->
        let y0 = (Photo.Steady_state.natural env).Photo.Steady_state.y in
        match
          counts [ fallbacks; iterations ] (fun () ->
              Photo.Steady_state.evaluate ~y0 ~env ~ratios:designs.(i) ())
        with
        | r, [ 0; its ] -> (its, hex_hash r.Photo.Steady_state.y)
        | _ -> Alcotest.fail "PTC root not certified")
      Photo.Params.six_conditions
  in
  Alcotest.(check (list (pair int string))) "iterations and root hash"
    [
      (9, "8b36ca77045eccd1"); (10, "a3539412564f37d5"); (43, "5585007b9e978f69");
      (11, "b929f7e9b9fcd8c4"); (10, "70ffc95c11aa9674"); (41, "aa21fe4710f6c3d0");
    ]
    got

let test_dopri5_window_bits () =
  (* One 20-unit window of the natural leaf from the cold initial state,
     at the tolerances [evaluate] integrates with. *)
  let f =
    Photo.Model.rhs Photo.Params.default present_low ~vmax:(Photo.Enzyme.natural_vmax ())
  in
  let y0 = Photo.State.initial () in
  let r = Numerics.Ode.dopri5 ~rtol:2e-4 ~atol:1e-7 ~f ~t0:0. ~t1:20. ~y0 () in
  let s = r.Numerics.Ode.stats in
  Alcotest.(check (list int)) "steps, rejected" [ 110; 8 ] [ s.Numerics.Ode.steps; s.Numerics.Ode.rejected ];
  Alcotest.(check string) "state hash" "5c16912cd00bedc5" (hex_hash r.Numerics.Ode.y)

let test_y0_length_checked () =
  (* Too long a y0 used to be relaxed and reported converged with a state
     of its own length; too short a one raised a bare index error. *)
  List.iter
    (fun len ->
      Alcotest.check_raises (Printf.sprintf "%d states" len)
        (Invalid_argument "Steady_state.evaluate: y0 length") (fun () ->
          ignore
            (Photo.Steady_state.evaluate ~y0:(Array.make len 0.5) ~env:present_low
               ~ratios:(ones ()) ())))
    [ 23; 25; 30 ]

let test_unacceptable_root_falls_back () =
  (* Design 56 of a seed-3 draw over [0.05, 3] at present Ci, high
     export: PTC from the natural state converges to a root whose
     Jacobian has an eigenvalue with a positive real part.  One 20-unit
     window from the root keeps its uptake within 1e-3·(|u|+1), but the
     trajectory from the natural state does not stay there: its uptake
     reads 6.24 at t = 3 000 and 5.48 at t = 3 200.  The root is
     rejected and counted, and the restart runs; it finds no certified
     root either. *)
  let env = Photo.Params.present ~tp_export:Photo.Params.high_export in
  let ratios = (seeded_designs ~seed:3 ~lo:0.05 ~hi:3. 56).(55) in
  let y0 = (Photo.Steady_state.natural env).Photo.Steady_state.y in
  let unstable = Obs.Metrics.counter "ode.ptc.unstable" in
  let r, n =
    counts [ fallbacks; unstable ] (fun () -> Photo.Steady_state.evaluate ~y0 ~env ~ratios ())
  in
  Alcotest.(check (list int)) "restarts, unstable roots" [ 1; 1 ] n;
  Alcotest.(check bool) "unconverged" false r.Photo.Steady_state.converged;
  Alcotest.(check bool) "finite report" true (Float.is_finite r.Photo.Steady_state.uptake);
  (* A start far outside the pools (ATP ~1e6 mM against a 1.5 mM
     adenylate total): PTC finds no root, and the restart is counted. *)
  let poisoned = Array.copy y0 in
  poisoned.(Photo.State.atp) <- 1.4e6;
  poisoned.(Photo.State.s7p) <- 8e5;
  let _, n =
    counted (fun () -> Photo.Steady_state.evaluate ~y0:poisoned ~env ~ratios:(ones ()) ())
  in
  Alcotest.(check int) "out-of-bounds start restarts" 1 n

let test_runaway_unconverged () =
  (* Design 77 of a seed-43 draw over [0.05, 3] at present Ci, high
     export.  Its trajectory from the natural state runs away: cytosolic
     FBP passes 100 mM by t = 3 000 while the uptake creeps, so a state
     rate relative to ‖y‖ looks settled once the pools are large.  PTC
     finds no certified root from the natural state, nor after the
     restart, so the design is unconverged and scores zero. *)
  let env = Photo.Params.present ~tp_export:Photo.Params.high_export in
  let ratios = (seeded_designs ~seed:43 ~lo:0.05 ~hi:3. 77).(76) in
  let y0 = (Photo.Steady_state.natural env).Photo.Steady_state.y in
  let r, n = counted (fun () -> Photo.Steady_state.evaluate ~y0 ~env ~ratios ()) in
  Alcotest.(check int) "one restart" 1 n;
  Alcotest.(check bool) "unconverged" false r.Photo.Steady_state.converged;
  check_float ~tol:0. "scores zero" 0. (Photo.Steady_state.uptake_score r);
  let f = Photo.Model.rhs Photo.Params.default env ~vmax:(Photo.Enzyme.vmax_of_ratios ratios) in
  let traj = Numerics.Ode.dopri5 ~rtol:2e-4 ~atol:1e-7 ~f ~t0:0. ~t1:3000. ~y0 () in
  let top = Array.fold_left Float.max 0. traj.Numerics.Ode.y in
  Alcotest.(check bool) (Printf.sprintf "a pool at %.1f mM > 60 at t = 3000" top) true (top > 60.)

let test_ptc_matches_long_relaxation () =
  (* Designs the windowed loop leaves unconverged at t_max (two within
     ±50 % of natural, two over [0.05, 3]; Rng seed 7, relaxed from the
     natural state): PTC's report converges and agrees with a t = 3 000
     integration within 1e-3·(|u|+1).  The windows' last uptakes were
     10.12, 13.46, 6.48 and 3.73. *)
  let y0 = (Photo.Steady_state.natural present_low).Photo.Steady_state.y in
  let narrow = seeded_designs ~seed:7 ~lo:0.5 ~hi:1.5 17 in
  let wide = seeded_designs ~seed:7 ~lo:0.05 ~hi:3. 14 in
  List.iter
    (fun (name, ratios) ->
      let r = Photo.Steady_state.evaluate ~y0 ~env:present_low ~ratios () in
      let vmax = Photo.Enzyme.vmax_of_ratios ratios in
      let k = Photo.Params.default in
      let f = Photo.Model.rhs k present_low ~vmax in
      let oracle = Numerics.Ode.dopri5 ~rtol:1e-6 ~atol:1e-9 ~f ~t0:0. ~t1:3000. ~y0 () in
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

(* The rhs writes the 24 derivatives into the solver's vector and the
   rates into a buffer its closure owns; what it still allocates is
   about 6 words per call. *)
let test_rhs_allocation () =
  let f = Photo.Model.rhs Photo.Params.default present_low ~vmax:(Photo.Enzyme.natural_vmax ()) in
  let y = Photo.State.initial () and dy = Array.make Photo.State.n 0. in
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f 0. y dy
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per call <= 8" per_call) true
    (per_call <= 8.)

(* {1 Jacobian pattern} *)

let test_pattern_shape () =
  let p = Photo.Model.pattern () and n = Photo.State.n in
  let inside = Testkit.Ode.inside ~n p in
  let nonzeros = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if inside i j then incr nonzeros
    done
  done;
  Alcotest.(check int) "structural nonzeros" 126 !nonzeros;
  Alcotest.(check int) "column groups" 13 (Numerics.Ode.pattern_groups p);
  for j = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "state %d reads itself" j) true (inside j j)
  done

let natural_roots () =
  List.map
    (fun env -> (env, (Photo.Steady_state.natural env).Photo.Steady_state.y))
    Photo.Params.six_conditions

let test_grouped_jacobian_bits () =
  (* The column-grouped Jacobian PTC takes is the dense forward
     difference bit for bit: at the six natural roots, and at 60 seeded
     states — ten designs per condition, five over [0.05, 3] and five
     within ±50 %, each at its condition's root scaled by U(0.5, 1.5) per
     state with one state clipped to 0 as PTC's steps do. *)
  let grouped = Photo.Model.pattern () and dense = Testkit.Ode.dense_pattern Photo.State.n in
  let check_at name env ratios y =
    let f = Photo.Model.rhs Photo.Params.default env ~vmax:(Photo.Enzyme.vmax_of_ratios ratios) in
    let bits pattern =
      Array.map (Array.map Int64.bits_of_float)
        (Testkit.Matrix.to_arrays
           (Testkit.Matrix.of_numerics ~n:Photo.State.n (Numerics.Ode.numeric_jacobian ~pattern f 0. y)))
    in
    if bits grouped <> bits dense then Alcotest.failf "%s: grouped and dense Jacobians differ" name
  in
  let rng = Numerics.Rng.create 23 in
  List.iteri
    (fun c (env, root) ->
      check_at (Printf.sprintf "natural root %d" c) env (ones ()) root;
      for d = 0 to 9 do
        let lo, hi = if d < 5 then (Photo.Leaf.ratio_min, Photo.Leaf.ratio_max) else (0.5, 1.5) in
        let ratios = Array.init Photo.Enzyme.count (fun _ -> Numerics.Rng.uniform rng lo hi) in
        let y = Array.map (fun yi -> yi *. Numerics.Rng.uniform rng 0.5 1.5) root in
        y.(Numerics.Rng.int rng Photo.State.n) <- 0.;
        check_at (Printf.sprintf "condition %d, design %d" c d) env ratios y
      done)
    (natural_roots ())

let test_pattern_covers_dataflow () =
  (* No finite change to one state moves a derivative outside that
     state's pattern column, at random interior states of [0.05, 3]
     designs.  A rate law that swallowed a NaN (a comparison or a min
     that drops it) would hide a dependence from the NaN probe and fail
     here. *)
  let n = Photo.State.n in
  let inside = Testkit.Ode.inside ~n (Photo.Model.pattern ()) in
  let rng = Numerics.Rng.create 29 in
  let dy0 = Array.make n 0. and dy = Array.make n 0. in
  List.iter
    (fun (env, root) ->
      for _ = 1 to 4 do
        let ratios =
          Array.init Photo.Enzyme.count (fun _ ->
              Numerics.Rng.uniform rng Photo.Leaf.ratio_min Photo.Leaf.ratio_max)
        in
        let f = Photo.Model.rhs Photo.Params.default env ~vmax:(Photo.Enzyme.vmax_of_ratios ratios) in
        let y = Array.map (fun yi -> yi *. Numerics.Rng.uniform rng 0.2 5.) root in
        f 0. y dy0;
        for j = 0 to n - 1 do
          let yj = y.(j) in
          List.iter
            (fun scale ->
              y.(j) <- yj *. scale;
              f 0. y dy;
              y.(j) <- yj;
              for i = 0 to n - 1 do
                if
                  (not (inside i j))
                  && not (Int64.equal (Int64.bits_of_float dy.(i)) (Int64.bits_of_float dy0.(i)))
                then
                  Alcotest.failf "dy%d/dt moved with y%d outside the pattern" i j
              done)
            [ 0.; 0.5; 2.; 1e3 ]
        done
      done)
    (natural_roots ())

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

(* The CLI's --ci and --export flags name one of the paper's conditions
   or a finite export rate; anything else is refused, never mapped to
   present Ci or low export. *)
let test_condition_flags () =
  let open Photo.Params in
  let past = of_flags ~ci:165 ~export:"low" and future = of_flags ~ci:490 ~export:"2.5" in
  Alcotest.(check bool) "past, low" true (past.ci = 165. && past.tp_export = low_export);
  Alcotest.(check bool) "present, high" true
    (present ~tp_export:high_export = of_flags ~ci:270 ~export:"high");
  Alcotest.(check bool) "future, a rate" true (future.ci = 490. && future.tp_export = 2.5);
  Alcotest.(check bool) "a zero rate" true
    (present ~tp_export:0. = of_flags ~ci:270 ~export:"0");
  List.iter
    (fun (ci, export) ->
      Alcotest.(check bool)
        (Printf.sprintf "--ci %d --export %s refused" ci export)
        true
        (match of_flags ~ci ~export with exception Invalid_argument _ -> true | _ -> false))
    [
      (300, "hgih");
      (300, "low");
      (270, "hgih");
      (12, "nan");
      (270, "nan");
      (270, "-1");
      (270, "inf");
      (270, "");
    ]

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

let env = present_low

(* {1 Control analysis} *)

let test_control_influential_enzymes () =
  let coeffs = Photo.Control.flux_control ~env ~ratios:(Array.make 23 1.) in
  let top = Photo.Control.ranking coeffs in
  let top4 = List.filteri (fun i _ -> i < 4) top in
  let names = List.map (fun c -> c.Photo.Control.name) top4 in
  (* The paper: Rubisco, SBPase, ADPGPP and FBP aldolase are the most
     influential enzymes; require at least two of them in our top four. *)
  let influential = [ "Rubisco"; "SBPase"; "ADPGPP"; "FBP Aldolase" ] in
  let hits = List.length (List.filter (fun n -> List.mem n influential) names) in
  Alcotest.(check bool)
    (Printf.sprintf "top4 = %s" (String.concat ", " names))
    true (hits >= 2)

let test_control_summation () =
  let coeffs = Photo.Control.flux_control ~env ~ratios:(Array.make 23 1.) in
  let s = Photo.Control.summation coeffs in
  (* Flux-control summation theorem: Σ C_i ≈ 1 (within model noise). *)
  Alcotest.(check bool) (Printf.sprintf "sum=%.3f in [0.5, 1.5]" s) true
    (s > 0.5 && s < 1.5)

let test_control_sucrose_enzymes_small () =
  (* The paper: the sucrose/starch pathway enzymes do not affect uptake at
     natural levels. *)
  let coeffs = Photo.Control.flux_control ~env ~ratios:(Array.make 23 1.) in
  let c i = Float.abs coeffs.(i).Photo.Control.control in
  Alcotest.(check bool) "SPS weak" true (c Photo.Enzyme.idx_sps < 0.1);
  Alcotest.(check bool) "SPP weak" true (c Photo.Enzyme.idx_spp < 0.1)

(* {1 Response curves} *)

let test_a_ci_monotone () =
  let curve = Photo.Response.a_ci_curve ~tp_export:1. ~ci_values:[ 165.; 270.; 490. ] in
  match curve with
  | [ (_, a1); (_, a2); (_, a3) ] ->
    Alcotest.(check bool) "A rises with Ci" true (a1 < a2 && a2 < a3)
  | _ -> Alcotest.fail "curve shape"

let test_a_ci_matches_conditions () =
  let curve = Photo.Response.a_ci_curve ~tp_export:1. ~ci_values:[ 270. ] in
  match curve with
  | [ (_, a) ] -> check_float ~tol:0.05 "matches natural point" 15.486 a
  | _ -> Alcotest.fail "curve shape"

let test_export_response_saturates () =
  let resp = Photo.Response.export_response ~ci:270. ~export_values:[ 0.25; 1.; 3. ] in
  match resp with
  | [ (_, a_low); (_, a_mid); (_, a_high) ] ->
    Alcotest.(check bool) "sink limitation at low export" true (a_low <= a_mid +. 0.2);
    Alcotest.(check bool) "saturating" true (a_high -. a_mid < a_mid -. a_low +. 2.)
  | _ -> Alcotest.fail "resp shape"

(* {1 Simulation} *)

let natural = Array.make Photo.Enzyme.count 1.

let test_time_course_samples () =
  let tc = Photo.Simulate.time_course ~env ~ratios:natural ~t_end:50. ~dt_sample:10. () in
  Alcotest.(check int) "six samples (0..50)" 6 (List.length tc);
  let ts = List.map (fun s -> s.Photo.Simulate.t) tc in
  Alcotest.(check bool) "monotone time" true (List.sort compare ts = ts)

let test_time_course_y0_checked () =
  List.iter
    (fun len ->
      Alcotest.check_raises (Printf.sprintf "%d states" len)
        (Invalid_argument "Photo.Simulate.time_course: y0 length") (fun () ->
          ignore
            (Photo.Simulate.time_course ~y0:(Array.make len 0.5) ~env ~ratios:natural ~t_end:10.
               ~dt_sample:10. ())))
    [ 23; 25; 30 ]

let test_induction_rises () =
  let tc = Photo.Simulate.induction ~env ~ratios:natural in
  match tc, List.rev tc with
  | first :: _, last :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "dark %.2f < final %.2f" first.Photo.Simulate.assimilation
         last.Photo.Simulate.assimilation)
      true
      (first.Photo.Simulate.assimilation < last.Photo.Simulate.assimilation);
    (* The induction should approach the steady-state rate. *)
    let ss = (Photo.Steady_state.natural env).Photo.Steady_state.uptake in
    Alcotest.(check bool)
      (Printf.sprintf "final %.2f near ss %.2f" last.Photo.Simulate.assimilation ss)
      true
      (Float.abs (last.Photo.Simulate.assimilation -. ss) < 0.15 *. ss)
  | _ -> Alcotest.fail "empty induction"

let test_induction_half_time () =
  let tc = Photo.Simulate.induction ~env ~ratios:natural in
  let t_half = Photo.Simulate.induction_half_time tc in
  Alcotest.(check bool)
    (Printf.sprintf "t_half %.0f in (0, 300)" t_half)
    true
    (t_half > 0. && t_half < 300.)

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

(* {1 Temperature} *)

let test_vmax_scale_reference () =
  check_float ~tol:1e-12 "unity at 25C" 1. (Photo.Temperature.vmax_scale 25.)

let test_vmax_scale_monotone_below_peak () =
  Alcotest.(check bool) "rises 10->25" true
    (Photo.Temperature.vmax_scale 10. < Photo.Temperature.vmax_scale 25.);
  Alcotest.(check bool) "collapses at 45" true
    (Photo.Temperature.vmax_scale 45. < Photo.Temperature.vmax_scale 30.)

let test_kinetics_at_trends () =
  let cold = Photo.Temperature.kinetics_at 15. in
  let hot = Photo.Temperature.kinetics_at 35. in
  Alcotest.(check bool) "kc_eff rises with T" true
    (hot.Photo.Params.kc_eff > cold.Photo.Params.kc_eff);
  Alcotest.(check bool) "gamma_star rises with T" true
    (hot.Photo.Params.gamma_star > cold.Photo.Params.gamma_star)

let test_uptake_at_reference_matches () =
  let a = Photo.Temperature.uptake_at ~env ~t_c:25. in
  check_float ~tol:0.05 "calibration preserved" 15.486 a

let test_temperature_peak () =
  let a20 = Photo.Temperature.uptake_at ~env ~t_c:20. in
  let a30 = Photo.Temperature.uptake_at ~env ~t_c:30. in
  let a42 = Photo.Temperature.uptake_at ~env ~t_c:42. in
  Alcotest.(check bool) "rises to 30" true (a30 > a20);
  Alcotest.(check bool) "collapses past 40" true (a42 < a20)

let test_optimum_in_range () =
  let topt, aopt = Photo.Temperature.optimum ~env in
  Alcotest.(check bool) (Printf.sprintf "T_opt %.1f in (25, 40)" topt) true
    (topt > 25. && topt < 40.);
  Alcotest.(check bool) "peak above calibration value" true (aopt > 15.486)

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
          Alcotest.test_case "jacobian pattern shape" `Quick test_pattern_shape;
          Alcotest.test_case "grouped jacobian bits" `Quick test_grouped_jacobian_bits;
          Alcotest.test_case "pattern covers the dataflow" `Quick test_pattern_covers_dataflow;
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
          Alcotest.test_case "seeded sweep bits" `Quick test_sweep_bits;
          Alcotest.test_case "ptc root bits" `Quick test_ptc_root_bits;
          Alcotest.test_case "dopri5 window bits" `Quick test_dopri5_window_bits;
          Alcotest.test_case "y0 length checked" `Quick test_y0_length_checked;
          Alcotest.test_case "unacceptable root falls back" `Quick test_unacceptable_root_falls_back;
          Alcotest.test_case "runaway unconverged" `Quick test_runaway_unconverged;
          Alcotest.test_case "ptc matches t = 3000" `Slow test_ptc_matches_long_relaxation;
        ] );
      ( "leaf-problem",
        [
          Alcotest.test_case "problem shape" `Quick test_leaf_problem_shape;
          Alcotest.test_case "objective signs" `Slow test_leaf_objectives_signs;
          Alcotest.test_case "condition flags" `Quick test_condition_flags;
          QCheck_alcotest.to_alcotest prop_nitrogen_monotone;
        ] );
      ( "control",
        [
          Alcotest.test_case "influential enzymes" `Slow test_control_influential_enzymes;
          Alcotest.test_case "summation theorem" `Slow test_control_summation;
          Alcotest.test_case "sucrose enzymes weak" `Slow test_control_sucrose_enzymes_small;
        ] );
      ( "response",
        [
          Alcotest.test_case "A/Ci monotone" `Slow test_a_ci_monotone;
          Alcotest.test_case "matches conditions" `Slow test_a_ci_matches_conditions;
          Alcotest.test_case "export saturation" `Slow test_export_response_saturates;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "time-course sampling" `Slow test_time_course_samples;
          Alcotest.test_case "y0 length checked" `Quick test_time_course_y0_checked;
          Alcotest.test_case "induction rises" `Slow test_induction_rises;
          Alcotest.test_case "induction half-time" `Slow test_induction_half_time;
        ] );
      ( "fixed-nitrogen",
        [
          Alcotest.test_case "budget exact" `Quick test_ratios_of_weights_budget;
          Alcotest.test_case "uniform weights = natural" `Quick test_ratios_of_weights_proportional;
          Alcotest.test_case "zhu-style gain" `Slow test_fixed_nitrogen_gains;
        ] );
      ( "temperature",
        [
          Alcotest.test_case "scale unity at 25C" `Quick test_vmax_scale_reference;
          Alcotest.test_case "scale shape" `Quick test_vmax_scale_monotone_below_peak;
          Alcotest.test_case "kinetic trends" `Quick test_kinetics_at_trends;
          Alcotest.test_case "calibration preserved" `Slow test_uptake_at_reference_matches;
          Alcotest.test_case "peaked response" `Slow test_temperature_peak;
          Alcotest.test_case "optimum location" `Slow test_optimum_in_range;
        ] );
    ]
