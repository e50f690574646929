(* The four end-to-end workloads, built only from public library
   functions.  A workload's [setup] does the per-process preparation
   (models, FBA seeds, the natural steady state, the domain pool) and
   returns the timed phase; the timed phase returns the untimed checker,
   which validates the outputs and reduces them to an [outcome].

   Bench-side instrumentation wraps the calls into each layer's public
   functions — the problem's eval/violation closures, the flux variation
   closure, the LP campaign phases, the Γ screens — in Obs spans and
   counters.  Both cost one atomic load when observability is off, which
   is how every timed (untraced) rep runs. *)

type ctx = {
  seed : int;
  smoke : bool;  (** tiny budgets for the [dune runtest] leg *)
  traced : bool;
  in_process : bool;  (** geobacter-fig4: run the islands here instead of on 2 shards *)
  out : string;  (** directory for checkpoints *)
}

type check = { check : string; ok : bool; detail : string }

type outcome = {
  units : int;  (** work units fixed by the inputs: evaluations, trials, LP items *)
  failures : int;  (** guard penalties, non-finite Γ trials, LP calls that raised *)
  front_hv : float;  (** normalized hypervolume against a reference box fixed below *)
  digest : string;  (** hash of every result value *)
  checks : check list;
}

type t = {
  name : string;
  default_seed : int;
  domains : int;  (** width of the domain pool the workload evaluates on; 0 = none *)
  setup : ctx -> unit -> unit -> outcome;
}

let c_photo_eval = Obs.Metrics.counter "photo.eval.calls"
let c_fba_eval = Obs.Metrics.counter "fba.eval.calls"
let c_variation = Obs.Metrics.counter "fba.variation.calls"
let c_trials = Obs.Metrics.counter "robustness.trials"
let c_epochs = Obs.Metrics.counter "pmo2.epochs"

let instrument ~layer ~calls (p : Moo.Problem.t) =
  let eval_span = layer ^ ".eval" and violation_span = layer ^ ".violation" in
  {
    p with
    Moo.Problem.eval =
      (fun x ->
        Obs.Metrics.incr calls;
        Obs.Span.with_span eval_span (fun () -> p.Moo.Problem.eval x));
    violation =
      Option.map
        (fun v x -> Obs.Span.with_span violation_span (fun () -> v x))
        p.Moo.Problem.violation;
  }

(* Archipelago epochs, seen from the supervisor whether or not the
   islands run sharded.  Traced reps only: an observer costs one
   hypervolume per epoch. *)
let epoch_observer ctx = if ctx.traced then Some (fun _ -> Obs.Metrics.incr c_epochs) else None

let check name ok detail = { check = name; ok; detail }

let finite_front front =
  front <> []
  && List.for_all
       (fun s -> Array.for_all Float.is_finite s.Moo.Solution.f && Float.is_finite s.Moo.Solution.v)
       front

let digest_of floats = Printf.sprintf "%016Lx" (Cache.Fnv.hash (Array.of_list floats))

let solution_floats s = Array.to_list s.Moo.Solution.f @ [ s.Moo.Solution.v ]

let guard_failures (r : Pmo2.Archipelago.result) =
  Array.fold_left (fun acc g -> acc + Runtime.Guard.failures g) 0 r.Pmo2.Archipelago.guard_stats

let pmo2_config ~pop ~period ?variation ?pool () =
  {
    Pmo2.Archipelago.default_config with
    migration_period = period;
    nsga2 = { Ea.Nsga2.default_config with pop_size = pop; variation; pool };
    guard_penalty = Some 1e12;
    parallel = Option.is_some pool;
    cache_size = Some 4096;
  }

let pool_of_width domains =
  Parallel.Pool.set_default_domains domains;
  Parallel.Pool.get ()

(* {1 photo-fig1} *)

(* Fixed hypervolume box for the leaf fronts (−uptake, nitrogen): every
   condition's natural leaf sits well inside it. *)
let photo_ideal = [| -50.; 0. |]
let photo_ref = [| 0.; 4e5 |]

(* Natural leaf at present Ci and low triose-P export (Zhu et al.). *)
let natural_uptake_present_low = 15.486

let photo_fig1 =
  let setup ctx =
    let pool = pool_of_width 2 in
    let pop, generations, period = if ctx.smoke then (4, 1, 1) else (8, 2, 1) in
    let cfg = pmo2_config ~pop ~period ~pool () in
    let conditions =
      List.map
        (fun env ->
          let problem = instrument ~layer:"photo" ~calls:c_photo_eval (Photo.Leaf.problem env) in
          (env, problem, Moo.Solution.evaluate problem (Array.make Photo.Enzyme.count 1.)))
        Photo.Params.six_conditions
    in
    fun () ->
      let runs =
        List.map
          (fun (env, problem, natural) ->
            ( env,
              Pmo2.Archipelago.run ~seed:ctx.seed ~initial:[ natural ] ?observer:(epoch_observer ctx)
                ~generations problem cfg ))
          conditions
      in
      fun () ->
        let label env = Printf.sprintf "%s/tp=%g" env.Photo.Params.label env.Photo.Params.tp_export in
        let fronts =
          List.map
            (fun (env, r) ->
              let front = r.Pmo2.Archipelago.front in
              ( check ("front " ^ label env) (finite_front front)
                  (Printf.sprintf "%d points" (List.length front)),
                Moo.Hypervolume.normalized ~ref_point:photo_ref ~ideal:photo_ideal
                  (List.map (fun s -> s.Moo.Solution.f) front) ))
            runs
        in
        let natural, _ =
          Photo.Leaf.natural_point (Photo.Params.present ~tp_export:Photo.Params.low_export)
        in
        {
          units = List.fold_left (fun acc (_, r) -> acc + r.Pmo2.Archipelago.evaluations) 0 runs;
          failures = List.fold_left (fun acc (_, r) -> acc + guard_failures r) 0 runs;
          front_hv =
            List.fold_left (fun acc (_, hv) -> acc +. hv) 0. fronts
            /. float_of_int (List.length fronts);
          digest =
            digest_of
              (List.concat_map
                 (fun (_, r) -> List.concat_map solution_floats r.Pmo2.Archipelago.front)
                 runs);
          checks =
            List.map fst fronts
            @ [
                check "natural present/low uptake"
                  (Float.abs (natural -. natural_uptake_present_low)
                  <= 0.1 *. natural_uptake_present_low)
                  (Printf.sprintf "%.3f vs %.3f ± 10%%" natural natural_uptake_present_low);
              ];
        }
  in
  { name = "photo-fig1"; default_seed = 2011; domains = 2; setup }

(* {1 gamma-table2} *)

(* Γ of the natural leaf at present Ci / high export over its pinned
   100-trial ensemble, recorded at the commit that added this benchmark. *)
let natural_gamma_pct = 47.
let natural_trials = 100

(* Seed of the natural leaf's ensemble and of the three design draws. *)
let pinned_seed = 42

let gamma_ideal = [| -20.; -100. |]
let gamma_ref = [| 0.; 0. |]

let gamma_table2 =
  let setup ctx =
    let pool = pool_of_width 2 in
    let env = Photo.Params.present ~tp_export:Photo.Params.high_export in
    let uptake = Experiments.Runs.uptake_property ~env in
    let non_finite = Atomic.make 0 in
    let f x =
      Obs.Metrics.incr c_photo_eval;
      Obs.Span.with_span "photo.eval" (fun () ->
          match uptake x with
          | u when Float.is_finite u -> u
          | u ->
            Atomic.incr non_finite;
            u
          | exception _ ->
            Atomic.incr non_finite;
            Float.nan)
    in
    (* Every screen is pinned to a design: the natural leaf, and three
       designs drawn once within ±50% of natural.  The natural leaf's
       Monte-Carlo ensemble is pinned too, so its Γ is exact and
       checkable; the seed draws the designs' ensembles. *)
    let design_rng = Numerics.Rng.create pinned_seed in
    let designs =
      List.init 3 (fun _ ->
          Array.init Photo.Enzyme.count (fun _ -> Numerics.Rng.uniform design_rng 0.5 1.5))
    in
    let rng = Numerics.Rng.create ctx.seed in
    let design_trials = if ctx.smoke then 16 else 80 in
    let screens =
      (pinned_seed, natural_trials, Array.make Photo.Enzyme.count 1.)
      :: List.map (fun x -> (Numerics.Rng.int rng 0x3FFF_FFFF, design_trials, x)) designs
    in
    fun () ->
      let results =
        List.map
          (fun (seed, trials, x) ->
            let r =
              Obs.Span.with_span "robustness.gamma" (fun () ->
                  Robustness.Yield.gamma_pool ~pool ~seed ~f ~trials x)
            in
            Obs.Metrics.add c_trials r.Robustness.Yield.trials;
            r)
          screens
      in
      fun () ->
        let natural = List.hd results in
        let points =
          List.map (fun r -> [| -.r.Robustness.Yield.nominal; -.r.Robustness.Yield.yield_pct |]) results
        in
        {
          units = List.fold_left (fun acc r -> acc + r.Robustness.Yield.trials) 0 results;
          failures = Atomic.get non_finite;
          front_hv = Moo.Hypervolume.normalized ~ref_point:gamma_ref ~ideal:gamma_ideal points;
          digest = digest_of (List.concat_map Array.to_list points);
          checks =
            [
              check "natural-leaf gamma"
                (Float.abs (natural.Robustness.Yield.yield_pct -. natural_gamma_pct) <= 5.)
                (Printf.sprintf "%.2f%% vs %.2f%% ± 5" natural.Robustness.Yield.yield_pct
                   natural_gamma_pct);
              check "finite screens"
                (List.for_all (Array.for_all Float.is_finite) points)
                (Printf.sprintf "%d screens" (List.length points));
            ];
        }
  in
  { name = "gamma-table2"; default_seed = 42; domains = 2; setup }

(* {1 geobacter-fig4} *)

let geo_ideal = [| -162.5; -0.305 |]
let geo_ref = [| -155.; -0.27 |]

let geo_point ~ep ~bp = [| -.ep; -.bp |]

(* Front members may violate S·v = 0 by up to the problem's ε-band
   (‖S·v‖ ≤ 0.005), which buys up to ~1e-4 of EP above the LP optimum;
   a member past 1e-3 is a broken penalty or projection. *)
let ep_band = 1e-3

let geobacter_fig4 =
  let setup ctx =
    let g = Fba.Geobacter.build () in
    let problem = instrument ~layer:"fba" ~calls:c_fba_eval (Fba.Moo_problem.problem g) in
    let seeds =
      Obs.Span.with_span "fba.seeds" (fun () ->
          Fba.Moo_problem.seeds g ~levels:[ 0.283; 0.292; 0.301 ])
    in
    let vary =
      Obs.Span.with_span "fba.projector" (fun () -> Fba.Moo_problem.flux_variation g ())
    in
    let variation rng p1 p2 =
      Obs.Metrics.incr c_variation;
      Obs.Span.with_span "fba.variation" (fun () -> vary rng p1 p2)
    in
    let ep_optimum =
      (Fba.Analysis.fba ~t:g.Fba.Geobacter.net ~objective:g.Fba.Geobacter.ep).Fba.Analysis.objective
    in
    let pop, generations, period = if ctx.smoke then (8, 2, 1) else (40, 8, 4) in
    let cfg = pmo2_config ~pop ~period ~variation () in
    let checkpoint = Filename.concat ctx.out "geobacter-fig4.ckpt" in
    let observer = epoch_observer ctx in
    fun () ->
      let r =
        if ctx.in_process then
          Pmo2.Archipelago.run ~seed:ctx.seed ~initial:seeds ~checkpoint ?observer ~generations
            problem cfg
        else
          fst
            (Shard.Supervisor.run ~seed:ctx.seed ~initial:seeds ~checkpoint ?observer
               ~config:{ Shard.Supervisor.default with shards = 2 }
               ~generations problem cfg)
      in
      fun () ->
        if Sys.file_exists checkpoint then Sys.remove checkpoint;
        let front = r.Pmo2.Archipelago.front in
        let feasible = List.filter (fun s -> s.Moo.Solution.v <= 0.) front in
        let best_ep =
          List.fold_left (fun m s -> Float.max m (Fba.Moo_problem.ep_of s)) neg_infinity feasible
        in
        {
          units = r.Pmo2.Archipelago.evaluations;
          failures = guard_failures r;
          front_hv =
            Moo.Hypervolume.normalized ~ref_point:geo_ref ~ideal:geo_ideal
              (List.map
                 (fun s -> geo_point ~ep:(Fba.Moo_problem.ep_of s) ~bp:(Fba.Moo_problem.bp_of s))
                 feasible);
          digest =
            digest_of
              (List.concat_map (fun s -> Array.to_list s.Moo.Solution.x @ solution_floats s) front);
          checks =
            [
              check "front" (finite_front front)
                (Printf.sprintf "%d points, %d feasible" (List.length front) (List.length feasible));
              check "no member beats the FBA EP optimum"
                (best_ep <= ep_optimum +. (ep_band *. Float.abs ep_optimum))
                (Printf.sprintf "best EP %.4f vs optimum %.4f" best_ep ep_optimum);
            ];
        }
  in
  { name = "geobacter-fig4"; default_seed = 2011; domains = 0; setup }

(* {1 lp-knockout} *)

let lp_min_biomass = 0.1

(* One screen item and the value the campaign reported for it; the
   checker re-solves a sample of them cold. *)
type lp_item =
  | Eps of float * float  (** biomass floor, EP optimum *)
  | Fva_max of int * float
  | Fva_min of int * float
  | Knockout of int list * float  (** removed reactions, EP optimum *)

let with_bounds t changes f =
  let saved = List.map (fun (j, _, _) -> (j, (Fba.Network.bounds t).(j))) changes in
  List.iter (fun (j, lo, hi) -> Fba.Network.set_bounds t j lo hi) changes;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (j, (lo, hi)) -> Fba.Network.set_bounds t j lo hi) saved)
    f

let cold_value (g : Fba.Geobacter.model) item =
  let t = g.Fba.Geobacter.net in
  let bp_lo, bp_hi = (Fba.Network.bounds t).(g.Fba.Geobacter.bp) in
  let ep () = (Fba.Analysis.fba ~t ~objective:g.Fba.Geobacter.ep).Fba.Analysis.objective in
  match item with
  | Eps (level, _) -> with_bounds t [ (g.Fba.Geobacter.bp, Float.max bp_lo level, bp_hi) ] ep
  | Fva_max (j, _) -> (Fba.Analysis.fba ~t ~objective:j).Fba.Analysis.objective
  | Fva_min (j, _) -> -.(Fba.Analysis.fba_multi ~t ~objective:[ (j, -1.) ]).Fba.Analysis.objective
  | Knockout (removed, _) ->
    with_bounds t
      ((g.Fba.Geobacter.bp, Float.max bp_lo lp_min_biomass, bp_hi)
      :: List.map (fun j -> (j, 0., 0.)) removed)
      ep

let reported = function
  | Eps (_, v) | Fva_max (_, v) | Fva_min (_, v) | Knockout (_, v) -> v

let sample rng k pool =
  let a = Array.of_list pool in
  List.sort compare
    (Array.to_list (Array.map (fun i -> a.(i)) (Numerics.Rng.sample_indices rng ~n:(Array.length a) ~k)))

let lp_knockout =
  let setup ctx =
    let g = Fba.Geobacter.build () in
    let t = g.Fba.Geobacter.net in
    let ep = g.Fba.Geobacter.ep and bp = g.Fba.Geobacter.bp in
    let n = Fba.Network.n_reactions t in
    let levels = List.init 25 (fun i -> 0.280 +. (0.021 *. float_of_int i /. 24.)) in
    let rng = Numerics.Rng.create ctx.seed in
    let candidates = List.filter (fun j -> j <> ep && j <> bp) (List.init n Fun.id) in
    let n_fva, n_single, n_pair, n_checked =
      if ctx.smoke then (8, 8, 4, 4) else (150, 150, 16, 16)
    in
    let fva_set = sample rng n_fva (List.init n Fun.id) in
    let single_set = sample rng n_single candidates in
    let pair_set = sample rng n_pair candidates in
    let failures = ref 0 in
    (* A public LP call that raises fails every item it was asked for. *)
    let phase name items f =
      Obs.Span.with_span name (fun () ->
          match f () with
          | v -> v
          | exception (Fba.Analysis.Infeasible_model _ | Invalid_argument _) ->
            failures := !failures + items;
            [])
    in
    fun () ->
      let eps =
        phase "lp.eps_sweep" (List.length levels) (fun () ->
            Fba.Analysis.epsilon_constraint ~t ~primary:ep ~secondary:bp ~levels)
      in
      let fva = phase "lp.fva" n_fva (fun () -> Fba.Analysis.fva ~t ~reactions:fva_set) in
      let screen name sets f =
        phase name sets (fun () ->
            f ~t ~target:ep ~biomass:bp ~min_biomass:lp_min_biomass)
      in
      let singles =
        screen "lp.ko_single" n_single (Fba.Knockout.single ~candidates:single_set)
      in
      let pairs =
        screen "lp.ko_pairs" (n_pair * (n_pair - 1) / 2) (Fba.Knockout.pairs ~candidates:pair_set)
      in
      fun () ->
        let knockout k = Knockout (k.Fba.Knockout.removed, k.Fba.Knockout.target_flux) in
        let items =
          Array.of_list
            (List.map (fun (v, level) -> Eps (level, v)) eps
            @ List.concat_map (fun (j, (lo, hi)) -> [ Fva_max (j, hi); Fva_min (j, lo) ]) fva
            @ List.map knockout singles
            @ List.map knockout pairs)
        in
        let k = Stdlib.min n_checked (Array.length items) in
        let mismatches = ref 0 and raised = ref 0 in
        Array.iter
          (fun i ->
            match cold_value g items.(i) with
            | cold ->
              if Float.abs (cold -. reported items.(i)) > 1e-6 *. (1. +. Float.abs cold) then
                incr mismatches
            | exception (Fba.Analysis.Infeasible_model _ | Invalid_argument _) -> incr raised)
          (Numerics.Rng.sample_indices rng ~n:(Array.length items) ~k);
        let floats = Array.to_list (Array.map reported items) in
        {
          units = List.length levels + n_fva + n_single + (n_pair * (n_pair - 1) / 2);
          failures = !failures + !raised;
          front_hv =
            Moo.Hypervolume.normalized ~ref_point:geo_ref ~ideal:geo_ideal
              (List.map (fun (v, level) -> geo_point ~ep:v ~bp:level) eps);
          digest = digest_of floats;
          checks =
            [
              check "campaign complete" (!failures = 0 && eps <> [] && fva <> [] && singles <> [])
                (Printf.sprintf "%d eps levels, %d FVA, %d singles, %d pairs" (List.length eps)
                   (List.length fva) (List.length singles) (List.length pairs));
              check "cold re-solves agree"
                (!mismatches = 0 && !raised = 0 && k = n_checked)
                (Printf.sprintf "%d of %d items differ by > 1e-6, %d raised" !mismatches k !raised);
            ];
        }
  in
  { name = "lp-knockout"; default_seed = 7; domains = 0; setup }

let all = [ photo_fig1; gamma_table2; geobacter_fig4; lp_knockout ]

let find name = List.find_opt (fun w -> w.name = name) all
