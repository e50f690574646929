(* Quick-scale reproduction gate for the paper's rows, run from the
   [repro-check] dune alias (kept out of [dune runtest]: the six
   experiments take minutes on two cores).

   Regenerates Fig. 1, Fig. 2, Table 1, Table 2, Fig. 3, Fig. 4 and the
   OptKnock comparison through the same [Experiments] code the CLI
   prints, compares every pinned number with its recorded value and
   band, and writes the whole record to REPRO.json (or to the path given
   as the only argument).  Exits 1 when any row leaves its band or a
   qualitative check fails.

   Bands.  Uptakes of the natural leaf move only with the steady-state
   solver, so they are held to 1e-3·(|u|+1), the resolution at which a
   relaxation is called steady.  Front-derived uptakes (Fig. 2, Table 2)
   get 5 % of (|u|+1), the nitrogen share 5 points.  A Γ is a binomial
   estimate: its band is 4 standard errors of the difference of two
   estimates at the recorded value and trial count, √(2Γ(1−Γ)/n).
   Fig. 4's points A–E are mined from a seeded PMO2 run over the 608
   Geobacter fluxes.  Their EP is held to 1 EP unit (mmol gDW⁻¹ h⁻¹),
   about the spacing of the paper's points and a third of the exact LP
   window's EP span; their BP to the BP one EP unit spans along that
   window, |ΔBP/ΔEP| of the ε-constraint sweep (≈ 0.006).  The violation
   reduction (best initial ‖S·v‖ over best evolved) gets 10 % of itself,
   the precision of the paper's "~1/26".  The ATP-maintenance bounds are
   an input, not a result: both must equal 0.45 exactly.  OptKnock's
   growth and succinate window are LP optima of a fixed network, held
   to 1e-3, the resolution the CLI prints them at.
   A change that moves the model's semantics re-derives a band only
   together with an EXPERIMENTS.md entry giving old → new → paper.

   Underflows.  A leaf relaxation window that underflows has failed, and
   nothing rescues it: the design is scored unconverged.  The run counts
   [ode.underflows] over the five leaf experiments and requires zero, so a
   model change that starts failing windows cannot score designs 0
   unnoticed. *)

let scale = Experiments.Scale.current ()
let budgets = Experiments.Scale.budgets scale

type row = {
  id : string;
  value : float;
  expected : float;
  band : float;
  paper : float option;
}

type check = { check : string; ok : bool; detail : string }

let row_ok r = Float.is_finite r.value && Float.abs (r.value -. r.expected) <= r.band

let natural_band u = 1e-3 *. (Float.abs u +. 1.)
let uptake_band u = 0.05 *. (Float.abs u +. 1.)

(* Four binomial standard errors of the difference of two Γ estimates,
   in percentage points; the proportion is kept off 0 and 1 so a
   saturated estimate still gets a non-empty band. *)
let gamma_band ~trials pct =
  let n = float_of_int trials in
  let p = Float.min (1. -. (1. /. n)) (Float.max (1. /. n) (pct /. 100.)) in
  400. *. sqrt (2. *. p *. (1. -. p) /. n)

(* {1 Recorded values}

   Quick scale, captured with the certified steady state (DESIGN.md
   §26); EXPERIMENTS.md lists the values they replaced. *)

let natural_expected =
  [
    ("ci=165/tp=1", 11.994668202941678);
    ("ci=165/tp=3", 11.840191352833436);
    ("ci=270/tp=1", 15.487700672042665);
    ("ci=270/tp=3", 15.441789785894915);
    ("ci=490/tp=1", 18.58955763608213);
    ("ci=490/tp=3", 18.58297233198126);
  ]

let fig2_b_uptake = 15.57747161946495
let fig2_b_nitrogen_pct = 45.999267214196578

let table2_expected =
  [
    ("Closest-to-ideal", (27.076928653659095, 51.75));
    ("Max CO2 Uptake", (44.458517313782345, 22.0));
    ("Min Nitrogen", (1.1176828002786536, 32.25));
    ("Max Yield", (35.240773967320585, 72.0));
  ]

(* The paper's Table 2 (uptake, Γ %). *)
let table2_paper =
  [
    ("Closest-to-ideal", (21.213, 67.));
    ("Max CO2 Uptake", (39.968, 65.));
    ("Min Nitrogen", (5.7, 50.));
    ("Max Yield", (37.116, 82.));
  ]

let anchor = 15.486

(* Fig. 4: (EP, BP) of points A–E, and the violation reduction. *)
let fig4_expected =
  [
    ("A", (157.4369914329246, 0.30599479545533514));
    ("B", (158.56007281536023, 0.29986008080248133));
    ("C", (159.63711062749329, 0.29351581600716958));
    ("D", (160.74729596568068, 0.28674866766233831));
    ("E", (161.86468629598576, 0.28000000000000003));
  ]

let fig4_reduction = 21.696178720610892

(* The paper's Fig. 4 points (EP, BP) and its ~1/26 reduction. *)
let fig4_paper =
  [
    ("A", (158.14, 0.300));
    ("B", (159.36, 0.298));
    ("C", (159.38, 0.297));
    ("D", (160.70, 0.284));
    ("E", (160.90, 0.283));
  ]

(* OptKnock in the E. coli core: each strain's growth and, for a
   growth-coupled strain, its succinate window at optimal growth.  The
   wild type guarantees no succinate. *)
let optknock_expected =
  [
    ("wild type", (5.5555555555555554, None));
    ("dPFL dLDH", (2.7777777777777777, Some (7.7699999999999996, 7.7800000000000011)));
  ]

(* {1 Experiments} *)

let env_key (env : Photo.Params.env) =
  Printf.sprintf "ci=%g/tp=%g" env.Photo.Params.ci env.Photo.Params.tp_export

let fig1 () =
  let series = Experiments.Fig1.compute () in
  let rows =
    List.map
      (fun (s : Experiments.Fig1.series) ->
        let key = env_key s.Experiments.Fig1.env in
        let u, _ = s.Experiments.Fig1.natural in
        let expected = Option.value ~default:nan (List.assoc_opt key natural_expected) in
        { id = "fig1/natural/" ^ key; value = u; expected; band = natural_band expected; paper = None })
      series
  in
  let present_low =
    List.find (fun r -> r.id = "fig1/natural/ci=270/tp=1") rows
  in
  rows
  @ [
      {
        id = "fig1/anchor";
        value = present_low.value;
        expected = anchor;
        band = natural_band anchor;
        paper = Some anchor;
      };
    ]

let fig2 () =
  match
    List.find_opt
      (fun (c : Experiments.Fig2.candidate) -> c.Experiments.Fig2.label = "B")
      (Experiments.Fig2.compute ())
  with
  | None -> ([], [ { check = "fig2/B mined"; ok = false; detail = "no candidate B on the front" } ])
  | Some b ->
    ( [
        {
          id = "fig2/B/uptake";
          value = b.Experiments.Fig2.uptake;
          expected = fig2_b_uptake;
          band = uptake_band fig2_b_uptake;
          paper = Some anchor;
        };
        {
          id = "fig2/B/nitrogen_pct";
          value = 100. *. b.Experiments.Fig2.nitrogen_frac;
          expected = fig2_b_nitrogen_pct;
          band = 5.;
          paper = Some 47.5;
        };
      ],
      [ { check = "fig2/B mined"; ok = true; detail = "" } ] )

let table1 () =
  match Experiments.Table1.compute () with
  | [ pmo2; moead ] ->
    let open Experiments.Table1 in
    let dominates name a b =
      {
        check = "table1/PMO2 beats MOEA-D on " ^ name;
        ok = a > b;
        detail = Printf.sprintf "%.3f vs %.3f" a b;
      }
    in
    [
      dominates "Rp" pmo2.rp moead.rp;
      dominates "Gp" pmo2.gp moead.gp;
      dominates "Vp" pmo2.vp moead.vp;
    ]
  | _ -> [ { check = "table1/two rows"; ok = false; detail = "unexpected row count" } ]

let table2 () =
  List.concat_map
    (fun (r : Experiments.Table2.row) ->
      let sel = r.Experiments.Table2.selection in
      let u, g = Option.value ~default:(nan, nan) (List.assoc_opt sel table2_expected) in
      let pu, pg = Option.value ~default:(nan, nan) (List.assoc_opt sel table2_paper) in
      let trials =
        if sel = "Max Yield" then Stdlib.max 100 (budgets.Experiments.Scale.yield_trials / 4)
        else budgets.Experiments.Scale.yield_trials
      in
      [
        {
          id = "table2/" ^ sel ^ "/uptake";
          value = r.Experiments.Table2.uptake;
          expected = u;
          band = uptake_band u;
          paper = Some pu;
        };
        {
          id = "table2/" ^ sel ^ "/gamma_pct";
          value = r.Experiments.Table2.yield_pct;
          expected = g;
          band = gamma_band ~trials g;
          paper = Some pg;
        };
      ])
    (Experiments.Table2.compute ())

let fig3 () =
  let extreme, interior = Experiments.Fig3.extremes_vs_interior (Experiments.Fig3.compute ()) in
  [
    {
      check = "fig3/extremes below best interior";
      ok = extreme < interior;
      detail = Printf.sprintf "%.1f%% vs %.1f%%" extreme interior;
    };
  ]

let fig4 () =
  let r = Experiments.Fig4.compute () in
  let lp = r.Experiments.Fig4.lp_front in
  let span xs = List.fold_left Float.max neg_infinity xs -. List.fold_left Float.min infinity xs in
  let ep_band = 1. in
  let bp_band = ep_band *. span (List.map snd lp) /. span (List.map fst lp) in
  let points =
    List.concat_map
      (fun (p : Experiments.Fig4.point) ->
        let l = p.Experiments.Fig4.label in
        let ep, bp = Option.value ~default:(nan, nan) (List.assoc_opt l fig4_expected) in
        let pep, pbp = Option.value ~default:(nan, nan) (List.assoc_opt l fig4_paper) in
        let row id value expected band paper =
          { id = "fig4/" ^ l ^ id; value; expected; band; paper = Some paper }
        in
        [
          row "/ep" p.Experiments.Fig4.ep ep ep_band pep;
          row "/bp" p.Experiments.Fig4.bp bp bp_band pbp;
        ])
      r.Experiments.Fig4.points
  in
  let g = Fba.Geobacter.build () in
  let atpm_lo, atpm_hi = (Fba.Network.bounds g.Fba.Geobacter.net).(g.Fba.Geobacter.atpm) in
  let atpm id value =
    { id = "fig4/atpm/" ^ id; value; expected = 0.45; band = 0.; paper = Some 0.45 }
  in
  points
  @ [
      {
        id = "fig4/violation_reduction";
        value = r.Experiments.Fig4.initial_violation /. r.Experiments.Fig4.best_violation;
        expected = fig4_reduction;
        band = 0.1 *. fig4_reduction;
        paper = Some 26.;
      };
      atpm "lb" atpm_lo;
      atpm "ub" atpm_hi;
    ]

let optknock () =
  let strain (r : Experiments.Optknock.row) =
    let l = r.Experiments.Optknock.label in
    let growth, window = Option.value ~default:(nan, None) (List.assoc_opt l optknock_expected) in
    let row id value expected =
      { id = "optknock/" ^ l ^ id; value; expected; band = 1e-3; paper = None }
    in
    let name = "optknock/" ^ l ^ if Option.is_some window then " growth-coupled" else " not coupled" in
    match r.Experiments.Optknock.coupling with
    | None -> ([], [ { check = name; ok = false; detail = "lethal" } ])
    | Some c ->
      let lo, hi = c.Fba.Knockout.target_at_growth in
      let coupled = lo > 1e-6 in
      ( row "/growth" c.Fba.Knockout.biomass_opt growth
        :: (match window with
           | Some (elo, ehi) -> [ row "/succinate_lo" lo elo; row "/succinate_hi" hi ehi ]
           | None -> []),
        [
          {
            check = name;
            ok = coupled = Option.is_some window;
            detail = Printf.sprintf "succinate at optimal growth >= %.3g" lo;
          };
        ] )
  in
  let rows, checks = List.split (List.map strain (Experiments.Optknock.compute ())) in
  (List.concat rows, List.concat checks)

(* {1 Report} *)

let json_of_row r =
  let open Obs.Json in
  Obj
    ([
       ("id", String r.id);
       ("value", Float r.value);
       ("expected", Float r.expected);
       ("band", Float r.band);
       ("ok", Bool (row_ok r));
     ]
    @ match r.paper with Some p -> [ ("paper", Float p) ] | None -> [])

let json_of_check c =
  Obs.Json.(Obj [ ("check", String c.check); ("ok", Bool c.ok); ("detail", String c.detail) ])

let no_underflows () =
  let n = Obs.Metrics.counter_value (Obs.Metrics.counter "ode.underflows") in
  { check = "ode/no window underflowed"; ok = n = 0; detail = Printf.sprintf "%d underflows" n }

(* How the leaf steady states went over the five leaf experiments: each
   evaluation runs PTC once, plus once more when it restarts. *)
let leaf_counts () =
  let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let calls = c "ode.ptc.calls" and restarts = c "photo.ptc_fallbacks" in
  [
    ("evaluations", calls - restarts);
    ("restarts", restarts);
    ("unstable_roots", c "ode.ptc.unstable");
  ]

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "REPRO.json" in
  Obs.Metrics.set_enabled true;
  let t0 = Obs.Clock.now_ns () in
  let timed name f =
    let s = Obs.Clock.now_ns () in
    let v = f () in
    Printf.printf "repro-check: %s done in %.1f s\n%!" name
      (float_of_int (Obs.Clock.now_ns () - s) /. 1e9);
    v
  in
  let fig1_rows = timed "fig1" fig1 in
  let fig2_rows, fig2_checks = timed "fig2" fig2 in
  let table1_checks = timed "table1" table1 in
  let table2_rows = timed "table2" table2 in
  let fig3_checks = timed "fig3" fig3 in
  let fig4_rows = timed "fig4" fig4 in
  let optknock_rows, optknock_checks = timed "optknock" optknock in
  let rows = fig1_rows @ fig2_rows @ table2_rows @ fig4_rows @ optknock_rows in
  let checks =
    fig2_checks @ table1_checks @ fig3_checks @ optknock_checks @ [ no_underflows () ]
  in
  let wall_s = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9 in
  let pass = List.for_all row_ok rows && List.for_all (fun c -> c.ok) checks in
  List.iter
    (fun r ->
      Printf.printf "%-4s %-36s %.17g (expected %.17g ± %.3g)\n"
        (if row_ok r then "ok" else "FAIL")
        r.id r.value r.expected r.band)
    rows;
  List.iter
    (fun c -> Printf.printf "%-4s %-36s %s\n" (if c.ok then "ok" else "FAIL") c.check c.detail)
    checks;
  let leaf = leaf_counts () in
  Printf.printf "leaf: %s\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) leaf));
  let json =
    Obs.Json.(
      Obj
        [
          ("scale", String (match scale with Experiments.Scale.Quick -> "quick" | Full -> "full"));
          ("wall_s", Float wall_s);
          ("pass", Bool pass);
          ("rows", List (List.map json_of_row rows));
          ("checks", List (List.map json_of_check checks));
          ("leaf", Obj (List.map (fun (k, v) -> (k, Int v)) leaf));
        ])
  in
  let oc = open_out_bin out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n');
  Printf.printf "repro-check: %s in %.1f s, wrote %s\n" (if pass then "PASS" else "FAIL") wall_s out;
  if not pass then exit 1
