(* Experiment harness + micro-benchmarks.

   With no arguments: regenerate every table and figure of the paper
   (paper-vs-measured rows) at the current REPRO_SCALE, run the ablation
   studies, then run one Bechamel micro-benchmark per experiment kernel.

   With arguments: run the named subset, e.g.
     dune exec bench/main.exe -- table1 fig4
     dune exec bench/main.exe -- bench            (micro-benchmarks only)
     dune exec bench/main.exe -- ablate-migration *)

open Bechamel
open Toolkit

(* {1 Results files} *)

(* Trimmed stdout and exit status of [git ARGS] on the checkout's own
   .git, or [None] when git cannot be run. *)
let git args =
  let argv = Array.of_list ("git" :: "--git-dir=.git" :: "--work-tree=." :: args) in
  match Unix.open_process_args_full "git" argv (Unix.environment ()) with
  | exception Unix.Unix_error _ -> None
  | (out, inp, err) as p ->
    close_out inp;
    let text = String.trim (In_channel.input_all out) in
    ignore (In_channel.input_all err);
    Some (text, Unix.close_process_full p)

(* HEAD as 12 hex digits, the form bench/e2e stamps; "unknown" outside
   a checkout.  A committed BENCH file is written before the change that
   carries it is committed, so tracked files that differ from HEAD add
   "-dirty" rather than pass the parent's rev off as the measured code. *)
let git_rev () =
  match git [ "rev-parse"; "--short=12"; "HEAD" ] with
  | Some (rev, Unix.WEXITED 0) when rev <> "" -> (
    match git [ "diff"; "--quiet"; "HEAD" ] with
    | Some (_, Unix.WEXITED 1) -> rev ^ "-dirty"
    | _ -> rev)
  | _ -> "unknown"

(* Write [BENCH_*.json] to the current directory: the benchmark's own
   fields, its gate verdict, and the stamp bench/e2e puts on its results
   (git rev, core count, REPRO_SCALE). *)
let write_results ~file ~pass fields =
  let stamp =
    Obs.Json.Obj
      [
        ("git_rev", Obs.Json.String (git_rev ()));
        ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
        ( "repro_scale",
          Obs.Json.String (Option.value ~default:"quick" (Sys.getenv_opt "REPRO_SCALE")) );
      ]
  in
  let doc = Obs.Json.Obj (fields @ [ ("pass", Obs.Json.Bool pass); ("stamp", stamp) ]) in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "   wrote %s (pass: %b)\n" file pass

(* {1 Micro-benchmark kernels: one per table/figure} *)

let synthetic_front n =
  let rng = Numerics.Rng.create 5 in
  List.init n (fun _ ->
      let t = Numerics.Rng.float rng in
      {
        Moo.Solution.x = [| t |];
        f = [| t; (1. -. sqrt t) +. (0.05 *. Numerics.Rng.float rng) |];
        v = 0.;
      })

let bench_fig1_leaf_eval =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let ratios = Array.make Photo.Enzyme.count 1. in
  Test.make ~name:"fig1/leaf-steady-state"
    (Staged.stage (fun () ->
         ignore (Photo.Steady_state.evaluate ~env ~ratios ())))

let bench_fig2_nitrogen =
  let vmax = Photo.Enzyme.natural_vmax () in
  Test.make ~name:"fig2/nitrogen-accounting"
    (Staged.stage (fun () -> ignore (Photo.Enzyme.raw_nitrogen vmax)))

let bench_table1_metrics =
  let front = synthetic_front 200 in
  let objs = List.map (fun s -> s.Moo.Solution.f) front in
  Test.make ~name:"table1/hypervolume+coverage"
    (Staged.stage (fun () ->
         ignore (Moo.Hypervolume.compute ~ref_point:[| 1.1; 1.1 |] objs);
         ignore (Moo.Coverage.union_front [ front ])))

let bench_table2_yield =
  let f x = (x.(0) *. x.(1)) +. x.(2) in
  (* A one-domain pool runs the trials inline in the caller. *)
  let pool = Parallel.Pool.create ~domains:1 () in
  Test.make ~name:"table2/yield-gamma-200"
    (Staged.stage (fun () ->
         ignore (Robustness.Yield.gamma_pool ~pool ~seed:7 ~f ~trials:200 [| 1.; 2.; 3. |])))

let bench_fig3_sweep =
  let front = synthetic_front 500 in
  Test.make ~name:"fig3/equally-spaced-50"
    (Staged.stage (fun () -> ignore (Moo.Mine.equally_spaced ~k:50 front)))

let geobacter = lazy (Fba.Geobacter.build ())

let bench_fig4_violation =
  Test.make ~name:"fig4/stoich-violation"
    (Staged.stage
       (let g = Lazy.force geobacter in
        let v = Array.make 608 0.1 in
        fun () -> ignore (Fba.Network.violation g.Fba.Geobacter.net v)))

(* [repair] works in place, so each run repairs a fresh copy of the
   same vector. *)
let bench_fig4_repair =
  Test.make ~name:"fig4/nullspace-repair"
    (Staged.stage
       (let g = Lazy.force geobacter in
        let repair = Fba.Moo_problem.repair g in
        let rng = Numerics.Rng.create 11 in
        let v = Array.init 608 (fun _ -> Numerics.Rng.uniform rng (-10.) 10.) in
        fun () -> repair (Array.copy v)))

(* One variation call, two children, on two repaired seeded parents. *)
let bench_fig4_variation =
  Test.make ~name:"fig4/flux-variation"
    (Staged.stage
       (let g = Lazy.force geobacter in
        let repair = Fba.Moo_problem.repair g in
        let vary = Fba.Moo_problem.flux_variation g () in
        let rng = Numerics.Rng.create 11 in
        let parent () =
          let v = Array.init 608 (fun _ -> Numerics.Rng.uniform rng (-10.) 10.) in
          repair v;
          v
        in
        let p1 = parent () in
        let p2 = parent () in
        fun () -> ignore (Sys.opaque_identity (vary rng p1 p2))))

(* The leaf kernel under fig1/leaf-steady-state, natural leaf at present
   Ci, low export: one rhs call; one 20-unit dopri5 window (what a
   restart integrates) from the steady state at [Steady_state.evaluate]'s
   tolerances; one PTC solve from the cold initial state, its root
   certificate included; one PTC solve started at the natural root, which
   takes no Newton step, so it is one residual, one Jacobian and the
   certificate on the Jacobian's diagonal blocks; and the eigenvalue
   kernel alone on the natural root's full 24×24 Jacobian (each run first
   copies the Jacobian into the buffer the kernel overwrites). *)
let leaf_env = Photo.Params.present ~tp_export:Photo.Params.low_export

let leaf_rhs () = Photo.Model.rhs Photo.Params.default leaf_env ~vmax:(Photo.Enzyme.natural_vmax ())

let bench_photo_rhs =
  Test.make ~name:"photo/rhs"
    (Staged.stage
       (let f = leaf_rhs () and y = Photo.State.initial () and dy = Array.make Photo.State.n 0. in
        fun () -> f 0. y dy))

let bench_ode_dopri5_window =
  Test.make ~name:"ode/dopri5-window"
    (Staged.stage
       (let f = leaf_rhs () in
        let y0 = (Photo.Steady_state.natural leaf_env).Photo.Steady_state.y in
        fun () -> ignore (Numerics.Ode.dopri5 ~rtol:2e-4 ~atol:1e-7 ~f ~t0:0. ~t1:20. ~y0 ())))

let bench_ode_ptc =
  Test.make ~name:"ode/ptc"
    (Staged.stage
       (let f = leaf_rhs () and y0 = Photo.State.initial () and pattern = Photo.Model.pattern () in
        fun () -> ignore (Numerics.Ode.pseudo_transient ~pattern ~f ~y0 ())))

let bench_ode_certificate =
  Test.make ~name:"ode/certificate"
    (Staged.stage
       (let f = leaf_rhs () and pattern = Photo.Model.pattern () in
        let y0 = (Photo.Steady_state.natural leaf_env).Photo.Steady_state.y in
        fun () -> ignore (Numerics.Ode.pseudo_transient ~pattern ~f ~y0 ())))

let bench_ode_eigenvalues =
  Test.make ~name:"ode/eigenvalues"
    (Staged.stage
       (let n = Photo.State.n in
        let y = (Photo.Steady_state.natural leaf_env).Photo.Steady_state.y in
        let pattern = Photo.Model.pattern () in
        let jac = Numerics.Ode.numeric_jacobian ~pattern (leaf_rhs ()) 0. y in
        let src = Array.init (n * n) (fun k -> Numerics.Matrix.get jac (k / n) (k mod n)) in
        let a = Array.make (n * n) 0. and wr = Array.make n 0. and wi = Array.make n 0. in
        fun () ->
          Array.blit src 0 a 0 (n * n);
          ignore (Numerics.Eigen.eigenvalues_in_place ~n a wr wi)))

(* Cost of the fault-tolerance wrapper on the hot kernel: the same
   fig1/leaf-steady-state evaluation routed through Guard, plus the bare
   wrapper on a trivial objective to expose the fixed per-call overhead. *)
let bench_guard_overhead =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let ratios = Array.make Photo.Enzyme.count 1. in
  let guard = Runtime.Guard.create () in
  let leaf r =
    let rep = Photo.Steady_state.evaluate ~env ~ratios:r () in
    [| -.rep.Photo.Steady_state.uptake; rep.Photo.Steady_state.nitrogen |]
  in
  let guarded_leaf = Runtime.Guard.wrap guard ~n_obj:2 leaf in
  Test.make ~name:"guard-overhead/leaf-steady-state"
    (Staged.stage (fun () -> ignore (guarded_leaf ratios)))

let bench_guard_overhead_bare =
  let guard = Runtime.Guard.create () in
  let trivial = Runtime.Guard.wrap guard ~n_obj:2 (fun x -> [| x.(0); x.(1) |]) in
  Test.make ~name:"guard-overhead/trivial-objective"
    (Staged.stage (fun () -> ignore (trivial [| 1.; 2. |])))

let bench_pmo2_generation =
  Test.make ~name:"pmo2/nsga2-generation-zdt1"
    (Staged.stage
       (let problem = Moo.Benchmarks.zdt1 ~n:20 in
        let rng = Numerics.Rng.create 1 in
        let st = Ea.Nsga2.init problem { Ea.Nsga2.default_config with pop_size = 40 } rng in
        fun () -> Ea.Nsga2.step st 1))

let bench_lp_solve =
  Test.make ~name:"lp/simplex-20x12"
    (Staged.stage
       (let rng = Numerics.Rng.create 3 in
        let n = 20 and m = 12 in
        let a = Numerics.Sparse.create ~rows:m ~cols:n in
        for j = 0 to n - 1 do
          for i = 0 to m - 1 do
            Numerics.Sparse.set a i j (Numerics.Rng.uniform rng 0. 1.)
          done
        done;
        let spec =
          {
            Lp.Simplex.n_rows = m;
            cols = Numerics.Sparse.compress a;
            rhs = Array.make m 10.;
            obj = Array.init n (fun _ -> Numerics.Rng.uniform rng 0. 1.);
            lo = Array.make n 0.;
            up = Array.make n 5.;
          }
        in
        fun () -> ignore (Lp.Simplex.solve spec)))

(* Run a Bechamel group and return (name, ns-per-run) rows, name-sorted. *)
let measure_rows tests =
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.sort compare
    (Hashtbl.fold
       (fun name o acc ->
         match Analyze.OLS.estimates o with
         | Some (t :: _) -> (name, t) :: acc
         | _ -> (name, nan) :: acc)
       results [])

let print_rows rows =
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "   %-38s (no estimate)\n" name
      else if ns > 1e6 then Printf.printf "   %-38s %10.3f ms/run\n" name (ns /. 1e6)
      else if ns > 1e3 then Printf.printf "   %-38s %10.3f us/run\n" name (ns /. 1e3)
      else Printf.printf "   %-38s %10.1f ns/run\n" name ns)
    rows

let run_micro_benchmarks () =
  Printf.printf "== Micro-benchmarks (Bechamel, monotonic clock) ==\n%!";
  print_rows
    (measure_rows
       (Test.make_grouped ~name:"kernels"
          [
            bench_fig1_leaf_eval;
            bench_photo_rhs;
            bench_ode_dopri5_window;
            bench_ode_ptc;
            bench_ode_certificate;
            bench_ode_eigenvalues;
            bench_fig2_nitrogen;
            bench_table1_metrics;
            bench_table2_yield;
            bench_fig3_sweep;
            bench_fig4_violation;
            bench_fig4_repair;
            bench_fig4_variation;
            bench_guard_overhead;
            bench_guard_overhead_bare;
            bench_pmo2_generation;
            bench_lp_solve;
          ]))

(* {1 Observability overhead}

   The obs layer promises that a disabled probe — [Span.with_span],
   [Metrics.incr], [Metrics.observe], [Metrics.set_gauge] — costs a
   single atomic load, under 10 ns, and that the flight recorder
   records into its mapped file in under 50 ns.  [bench-obs] measures the disabled
   hot paths and the ring with Bechamel, records everything in
   BENCH_obs.json, and exits non-zero if any bound breaks.  Each gated
   probe gets [gate_estimates] Bechamel estimates and is gated on their
   median, so one estimate taken while the host is busy cannot fail the
   run on its own.  In --quick mode the same gates run on manual best-of
   loops (no Bechamel quota, no JSON) so they can ride in @bench-smoke. *)

let quick_mode = ref false

let best_of_ns ?(reps = 5) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Obs.Clock.now_ns () in
    f ();
    let dt = float_of_int (Obs.Clock.now_ns () - t0) in
    if dt < !best then best := dt
  done;
  !best

let wall_ns f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Obs.Clock.now_ns () - t0))

(* User + system CPU seconds of the whole process, every domain included. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let obs_threshold_ns = 10.
let ring_threshold_ns = 50.
let gate_estimates = 5

(* [measure_rows] [n] times over the same tests: each name with its [n]
   estimates in run order. *)
let estimate_rows n tests =
  let runs = List.init n (fun _ -> measure_rows tests) in
  List.map (fun (name, _) -> (name, List.map (List.assoc name) runs)) (List.hd runs)

(* A missing estimate (NaN) counts as an unbounded one. *)
let median_ns estimates =
  let a = Array.of_list (List.map (fun ns -> if Float.is_nan ns then infinity else ns) estimates) in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let print_estimates rows =
  List.iter
    (fun (name, estimates) ->
      Printf.printf "   %-38s %10.1f ns/run (median of %d: %s)\n" name (median_ns estimates)
        (List.length estimates)
        (String.concat " " (List.map (Printf.sprintf "%.1f") estimates)))
    rows

(* Run [f] with the flight recorder attached to a scratch file: the path
   [Ring.record] takes in a run.  With no file attached it stores
   nothing, so timing it unattached would time a no-op. *)
let with_ring_file f =
  let path = Filename.temp_file "bench-obs" ".ring" in
  Obs.Ring.attach ~path ~lane:0;
  Fun.protect
    ~finally:(fun () ->
      Obs.Ring.reset ();
      Sys.remove path)
    f

let run_obs_benchmarks_quick () =
  Obs.Span.set_enabled false;
  Obs.Metrics.set_enabled false;
  let c = Obs.Metrics.counter "bench.obs.counter" in
  let h = Obs.Metrics.histogram ~buckets:Obs.Metrics.default_ms_buckets "bench.obs.hist" in
  let g = Obs.Metrics.gauge "bench.obs.gauge" in
  let rp = Obs.Ring.probe "bench.obs.ring" in
  let n = 200_000 in
  let per_call f =
    best_of_ns (fun () ->
        for _ = 1 to n do
          f ()
        done)
    /. float_of_int n
  in
  let disabled =
    [
      ( "obs-disabled/span-overhead",
        per_call (fun () -> Obs.Span.with_span "bench" (fun () -> ())) );
      ("obs-disabled/metrics-overhead/incr", per_call (fun () -> Obs.Metrics.incr c));
      ("obs-disabled/metrics-overhead/observe", per_call (fun () -> Obs.Metrics.observe h 1.));
      ("obs-disabled/metrics-overhead/gauge", per_call (fun () -> Obs.Metrics.set_gauge g 1.));
    ]
  in
  let ring =
    ( "ring-record",
      with_ring_file (fun () -> per_call (fun () -> Obs.Ring.record rp Obs.Ring.Count 1)) )
  in
  List.iter
    (fun (k, ns) -> Printf.printf "   %-38s %10.1f ns/run (best of 5)\n" k ns)
    (disabled @ [ ring ]);
  let ok limit (_, ns) = Float.is_finite ns && ns < limit in
  Printf.printf "   smoke mode: gates checked, BENCH_obs.json not written\n%!";
  if not (List.for_all (ok obs_threshold_ns) disabled) then begin
    Printf.eprintf "bench-obs: a disabled probe exceeds %g ns\n" obs_threshold_ns;
    exit 1
  end;
  if not (ok ring_threshold_ns ring) then begin
    Printf.eprintf "bench-obs: ring record exceeds %g ns\n" ring_threshold_ns;
    exit 1
  end

let run_obs_benchmarks_full () =
  Obs.Span.set_enabled false;
  Obs.Metrics.set_enabled false;
  let c = Obs.Metrics.counter "bench.obs.counter" in
  let h = Obs.Metrics.histogram ~buckets:Obs.Metrics.default_ms_buckets "bench.obs.hist" in
  let g = Obs.Metrics.gauge "bench.obs.gauge" in
  let metric_probes =
    [
      Test.make ~name:"metrics-overhead/incr" (Staged.stage (fun () -> Obs.Metrics.incr c));
      Test.make ~name:"metrics-overhead/observe"
        (Staged.stage (fun () -> Obs.Metrics.observe h 1.));
      Test.make ~name:"metrics-overhead/gauge"
        (Staged.stage (fun () -> Obs.Metrics.set_gauge g 1.));
    ]
  in
  let span_probe =
    Test.make ~name:"span-overhead"
      (Staged.stage (fun () -> Obs.Span.with_span "bench" (fun () -> ())))
  in
  let disabled =
    estimate_rows gate_estimates
      (Test.make_grouped ~name:"obs-disabled" (span_probe :: metric_probes))
  in
  print_estimates disabled;
  (* Enabled-path numbers, for context (no bound claimed).  Metrics stay
     allocation-free so Bechamel can drive them; an enabled span retains
     an event per call, so a Bechamel quota would pin millions of live
     events — measure it with a bounded manual loop instead. *)
  Obs.Metrics.set_enabled true;
  let enabled = measure_rows (Test.make_grouped ~name:"obs-enabled" metric_probes) in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  print_rows enabled;
  let span_enabled_ns =
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    let n = 100_000 in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to n do
      Obs.Span.with_span "bench" (fun () -> ())
    done;
    let ns = float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int n in
    Obs.Span.set_enabled false;
    Obs.Span.reset ();
    ns
  in
  Printf.printf "   %-38s %10.1f ns/run (manual loop)\n" "obs-enabled/span-recording"
    span_enabled_ns;
  (* The flight recorder: its record path into the mapped file must stay
     lock-free and allocation-free, bounded at [ring_threshold_ns]. *)
  let rp = Obs.Ring.probe "bench.obs.ring" in
  let ring_rows =
    with_ring_file (fun () ->
        estimate_rows gate_estimates
          (Test.make_grouped ~name:"ring"
             [
               Test.make ~name:"record"
                 (Staged.stage (fun () -> Obs.Ring.record rp Obs.Ring.Count 1));
             ]))
  in
  print_estimates ring_rows;
  let under limit = List.for_all (fun (_, estimates) -> median_ns estimates < limit) in
  let pass = under obs_threshold_ns disabled && under ring_threshold_ns ring_rows in
  let json_rows rows = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) rows) in
  let medians = List.map (fun (k, estimates) -> (k, median_ns estimates)) in
  let json_estimates rows =
    Obs.Json.Obj
      (List.map
         (fun (k, estimates) -> (k, Obs.Json.List (List.map (fun v -> Obs.Json.Float v) estimates)))
         rows)
  in
  write_results ~file:"BENCH_obs.json" ~pass
    [
      ("benchmark", Obs.Json.String "observability probe overhead (ns per call)");
      ("threshold_ns", Obs.Json.Float obs_threshold_ns);
      ("ring_threshold_ns", Obs.Json.Float ring_threshold_ns);
      ( "gate",
        Obs.Json.String
          (Printf.sprintf "median of %d Bechamel OLS estimates per gated probe" gate_estimates) );
      ("disabled", json_rows (medians disabled));
      ("disabled_estimates", json_estimates disabled);
      ("enabled", json_rows (enabled @ [ ("obs-enabled/span-recording", span_enabled_ns) ]));
      ("ring", json_rows (medians ring_rows));
      ("ring_estimates", json_estimates ring_rows);
    ];
  if not pass then begin
    Printf.eprintf "bench-obs: a probe exceeds its bound (disabled %g ns, ring %g ns)\n"
      obs_threshold_ns ring_threshold_ns;
    exit 1
  end

let run_obs_benchmarks () =
  Printf.printf
    "== Observability overhead (disabled probes < %g ns, ring record < %g ns) ==\n%!"
    obs_threshold_ns ring_threshold_ns;
  if !quick_mode then run_obs_benchmarks_quick () else run_obs_benchmarks_full ()

(* {1 Parallel pool speedup}

   [bench-parallel] times the two hot fan-out shapes — a photo-leaf
   population evaluation and a robustness Monte-Carlo ensemble — on
   pools of 1/2/4/8 domains, asserts every wider pool's result
   bit-for-bit equal to the one-domain pool's (which runs the items
   inline, in index order: the sequential path), and writes the speedup
   curves to BENCH_parallel.json.

   Each rep runs every width once, in turn, so host noise lands on all
   widths alike, each on a fresh pool that is shut down before the next
   width starts.  A width's speedup is the median over reps of the
   paired ratio (that rep's one-domain time over its time at the
   width): a noisy stretch of the host then slows both sides of a pair
   instead of one median.  Each kernel is sized so that its one-domain
   point takes at least 100 ms, far above the timer and scheduling
   noise.  A point also records the median process CPU time of a run
   (Unix.times, user + system over all domains), so a verdict can tell
   a pool that did not scale from a host that lent it no second core.
   The pass criterion adapts to the machine: at least 3x at 8 domains,
   or 0.8x-linear at the machine's core count, whichever is lower (1.6x
   at 2 domains on a 2-core host). *)

type pkernel = {
  pk_name : string;
  (* Run the kernel on [pool] and return a value to compare for
     bit-for-bit equality. *)
  pk_run : Parallel.Pool.t -> Obj.t;
}

let photo_population_kernel ~n =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let problem = Photo.Leaf.problem env in
  let rng = Numerics.Rng.create 17 in
  let xs = Array.init n (fun _ -> Moo.Problem.random_solution problem rng) in
  {
    pk_name = Printf.sprintf "photo-leaf-population/%d" n;
    pk_run =
      (fun pool ->
        Obj.repr
          (Parallel.Pool.parallel_map pool ~n (fun i -> Moo.Solution.evaluate problem xs.(i))));
  }

let robustness_ensemble_kernel ~trials =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let f ratios = (Photo.Steady_state.evaluate ~env ~ratios ()).Photo.Steady_state.uptake in
  let x = Array.make Photo.Enzyme.count 1. in
  {
    pk_name = Printf.sprintf "robustness-ensemble/%d" trials;
    pk_run = (fun pool -> Obj.repr (Robustness.Yield.gamma_pool ~pool ~seed:42 ~f ~trials x));
  }

let run_parallel_benchmarks () =
  let quick = !quick_mode in
  let kernels =
    if quick then [ photo_population_kernel ~n:8 ]
    else [ photo_population_kernel ~n:384; robustness_ensemble_kernel ~trials:640 ]
  in
  let widths = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let reps = if quick then 3 else 21 in
  let cores = Domain.recommended_domain_count () in
  let target_domains = Stdlib.min 8 cores in
  let threshold = Float.min 3.0 (0.8 *. float_of_int target_domains) in
  Printf.printf
    "== Parallel pool speedup (%d core%s; pass: median >= %.2fx at %d domain%s) ==\n%!"
    cores
    (if cores = 1 then "" else "s")
    threshold target_domains
    (if target_domains = 1 then "" else "s");
  let results =
    List.map
      (fun k ->
        (* One pool lives at a time, as in a run: parked workers of other
           widths would take part in every stop-the-world minor
           collection and tax the width being timed. *)
        let with_pool d f =
          let pool = Parallel.Pool.create ~domains:d () in
          Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)
        in
        let reference = with_pool 1 k.pk_run in
        List.iter
          (fun d ->
            if with_pool d k.pk_run <> reference then begin
              Printf.eprintf "bench-parallel: %s diverges at %d domains\n" k.pk_name d;
              exit 1
            end)
          widths;
        let samples = List.map (fun _ -> Array.make reps 0.) widths in
        let cpu = List.map (fun _ -> Array.make reps 0.) widths in
        for r = 0 to reps - 1 do
          List.iter2
            (fun d (ns, cpu_s) ->
              with_pool d (fun pool ->
                  let c0 = cpu_seconds () in
                  ns.(r) <- snd (wall_ns (fun () -> k.pk_run pool));
                  cpu_s.(r) <- cpu_seconds () -. c0))
            widths (List.combine samples cpu)
        done;
        let one_domain = List.hd samples in
        let curve =
          List.map2
            (fun d (ns, cpu_s) ->
              let q = Numerics.Stats.quantile in
              let ratios = Array.mapi (fun r t -> one_domain.(r) /. t) ns in
              let median = Numerics.Stats.median ns
              and speedup = Numerics.Stats.median ratios
              and cpu_ms = 1e3 *. Numerics.Stats.median cpu_s in
              Printf.printf
                "   %-32s %d domain%s  %8.3f ms [%.3f, %.3f]  cpu %8.3f ms  %5.2fx [%.2f, \
                 %.2f] (bit-identical)\n%!"
                k.pk_name d
                (if d = 1 then " " else "s")
                (median /. 1e6) (q ns 0.25 /. 1e6) (q ns 0.75 /. 1e6) cpu_ms speedup
                (q ratios 0.25) (q ratios 0.75);
              ( d,
                [
                  ("domains", Obs.Json.Float (float_of_int d));
                  ("ms", Obs.Json.Float (median /. 1e6));
                  ("ms_q1", Obs.Json.Float (q ns 0.25 /. 1e6));
                  ("ms_q3", Obs.Json.Float (q ns 0.75 /. 1e6));
                  ("cpu_ms", Obs.Json.Float cpu_ms);
                  ("speedup", Obs.Json.Float speedup);
                  ("speedup_q1", Obs.Json.Float (q ratios 0.25));
                  ("speedup_q3", Obs.Json.Float (q ratios 0.75));
                ],
                speedup ))
            widths (List.combine samples cpu)
        in
        let speedup_at_target =
          List.fold_left (fun acc (d, _, s) -> if d = target_domains then s else acc) nan curve
        in
        (k.pk_name, curve, speedup_at_target))
      kernels
  in
  if quick then Printf.printf "   smoke mode: 2-domain determinism check only\n%!"
  else begin
    let pass = List.for_all (fun (_, _, s) -> Float.is_finite s && s >= threshold) results in
    Printf.printf
      "   median [quartiles] of %d interleaved reps per point; speedup = median paired ratio\n%!"
      reps;
    write_results ~file:"BENCH_parallel.json" ~pass
      [
        ("benchmark", Obs.Json.String "persistent pool speedup (one-domain vs wider pools)");
        ("cores", Obs.Json.Float (float_of_int cores));
        ("target_domains", Obs.Json.Float (float_of_int target_domains));
        ("threshold_speedup", Obs.Json.Float threshold);
        ("reps", Obs.Json.Float (float_of_int reps));
        ( "kernels",
          Obs.Json.List
            (List.map
               (fun (name, curve, s_at) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.String name);
                     ( "curve",
                       Obs.Json.List (List.map (fun (_, point, _) -> Obs.Json.Obj point) curve) );
                     ("deterministic", Obs.Json.Bool true);
                     ("speedup_at_target", Obs.Json.Float s_at);
                   ])
               results) );
      ];
    if not pass then begin
      Printf.eprintf "bench-parallel: median paired speedup at %d domains below %.2fx\n"
        target_domains threshold;
      exit 1
    end
  end

(* {1 Evaluation cache + warm starts}

   [bench-cache] measures the two reuse layers of the cache subsystem
   and writes BENCH_cache.json:

   - memo/archipelago: the same seeded run with per-island memoization
     on vs off — the fronts must be bit-identical, the memo must score
     hits (clone offspring replay instead of re-evaluating), and the
     end-to-end speedup is recorded;
   - simplex/warm-start: a weighted-objective scan on the Geobacter
     model solved cold per level vs threading the previous optimal basis
     — the warm scan must spend strictly fewer [simplex.pivots].

   In --quick mode the kernels shrink (zdt1 archipelago, short scan),
   the gates still apply, and no JSON is written. *)

let counter_delta name f =
  Obs.Metrics.set_enabled true;
  let c = Obs.Metrics.counter name in
  let before = Obs.Metrics.counter_value c in
  let r = f () in
  let delta = Obs.Metrics.counter_value c - before in
  Obs.Metrics.set_enabled false;
  (r, delta)

let cache_fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "bench-cache: %s\n" m; exit 1) fmt

(* Kernel: memoized archipelago, cache on vs off at the same seed. *)
let bench_cache_memo ~quick =
  let problem, generations, pop_size =
    if quick then (Moo.Benchmarks.zdt1 ~n:8, 40, 16)
    else
      ( Photo.Leaf.problem (Photo.Params.present ~tp_export:Photo.Params.low_export),
        20,
        12 )
  in
  let cfg cache_size =
    {
      Pmo2.Archipelago.default_config with
      migration_period = 10;
      nsga2 = { Ea.Nsga2.default_config with pop_size };
      cache_size;
    }
  in
  let run cache_size () =
    Pmo2.Archipelago.run ~seed:33 ~generations problem (cfg cache_size)
  in
  let objs r =
    List.sort compare
      (List.map (fun s -> Array.to_list s.Moo.Solution.f) r.Pmo2.Archipelago.front)
  in
  let cold, cold_ns = wall_ns (run None) in
  let warm, warm_ns = wall_ns (run (Some 4096)) in
  if objs cold <> objs warm then cache_fail "memoized archipelago front diverges";
  if cold.Pmo2.Archipelago.evaluations <> warm.Pmo2.Archipelago.evaluations then
    cache_fail "memoized archipelago changed the evaluation count";
  let stats =
    Array.fold_left Cache.Memo.add_stats Cache.Memo.zero_stats
      warm.Pmo2.Archipelago.cache_stats
  in
  let hit_rate = Cache.Memo.hit_rate stats in
  if stats.Cache.Memo.hits = 0 then cache_fail "archipelago memo scored no hits";
  let speedup = cold_ns /. warm_ns in
  Printf.printf
    "   memo/archipelago   %6d hits / %6d lookups (%4.1f%% hit rate)  %5.2fx end-to-end (bit-identical)\n%!"
    stats.Cache.Memo.hits
    (stats.Cache.Memo.hits + stats.Cache.Memo.misses)
    (100. *. hit_rate) speedup;
  Obs.Json.Obj
    [
      ("name", Obs.Json.String "memo/archipelago");
      ("hits", Obs.Json.Float (float_of_int stats.Cache.Memo.hits));
      ( "lookups",
        Obs.Json.Float (float_of_int (stats.Cache.Memo.hits + stats.Cache.Memo.misses)) );
      ("hit_rate", Obs.Json.Float hit_rate);
      ("cold_ms", Obs.Json.Float (cold_ns /. 1e6));
      ("warm_ms", Obs.Json.Float (warm_ns /. 1e6));
      ("speedup", Obs.Json.Float speedup);
      ("bit_identical", Obs.Json.Bool true);
    ]

(* Kernel: simplex basis reuse across a weighted-objective scan. *)
let bench_cache_simplex ~quick =
  let g = Lazy.force geobacter in
  let t = g.Fba.Geobacter.net in
  let levels = if quick then 3 else 9 in
  let weights = List.init levels (fun i -> 0.05 *. float_of_int i) in
  let objective w = [ (g.Fba.Geobacter.ep, 1.); (g.Fba.Geobacter.bp, w) ] in
  let cold_scan () =
    List.map (fun w -> (Fba.Analysis.fba_multi ~t ~objective:(objective w)).Fba.Analysis.objective) weights
  in
  let warm_scan () =
    let prev = ref None in
    List.map
      (fun w ->
        let sol, carry =
          Fba.Analysis.fba_multi_with_basis ?basis:!prev ~t ~objective:(objective w) ()
        in
        (match carry with Some _ -> prev := carry | None -> ());
        sol.Fba.Analysis.objective)
      weights
  in
  let cold_objs, cold_pivots = counter_delta "simplex.pivots" cold_scan in
  let warm_objs, warm_pivots = counter_delta "simplex.pivots" warm_scan in
  List.iter2
    (fun c w ->
      if Float.abs (c -. w) > 1e-6 *. (1. +. Float.abs c) then
        cache_fail "warm simplex scan diverges (%.9g vs %.9g)" c w)
    cold_objs warm_objs;
  if warm_pivots >= cold_pivots then
    cache_fail "warm simplex scan did not save pivots (%d warm >= %d cold)" warm_pivots
      cold_pivots;
  Printf.printf "   simplex/warm-start %6d pivots cold -> %6d warm over %d levels\n%!"
    cold_pivots warm_pivots levels;
  Obs.Json.Obj
    [
      ("name", Obs.Json.String "simplex/warm-start");
      ("levels", Obs.Json.Float (float_of_int levels));
      ("pivots_cold", Obs.Json.Float (float_of_int cold_pivots));
      ("pivots_warm", Obs.Json.Float (float_of_int warm_pivots));
    ]

let run_cache_benchmarks () =
  let quick = !quick_mode in
  Printf.printf
    "== Evaluation cache + warm starts (gates: bit-identical, hits > 0, strictly fewer pivots) ==\n%!";
  let memo = bench_cache_memo ~quick in
  let simplex = bench_cache_simplex ~quick in
  let kernels = [ memo; simplex ] in
  if quick then Printf.printf "   smoke mode: gates checked, BENCH_cache.json not written\n%!"
  else begin
    write_results ~file:"BENCH_cache.json" ~pass:true
      [
        ("benchmark", Obs.Json.String "evaluation cache + warm starts (memo, simplex basis)");
        ("kernels", Obs.Json.List kernels);
      ]
  end

(* {1 Process sharding}

   [bench-shard] runs the same seeded archipelago three ways — in-process,
   sharded over 2 worker processes crash-free, and sharded over 2 workers
   with one injected SIGKILL mid-run — and gates on the supervisor's core
   promise: all three fronts bit-for-bit identical, same evaluation
   counts, and the killed run recovering through at least one supervised
   restart (never degradation).  The full run records wall clocks and a
   restart-latency histogram in BENCH_shard.json; --quick shrinks the
   kernel, keeps every gate, and writes nothing. *)

let shard_fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "bench-shard: %s\n" m; exit 1) fmt

let restart_bucket_edges_ms = [ 1.; 2.; 5.; 10.; 25.; 50.; 100. ]

let restart_histogram restart_ms =
  let edges = restart_bucket_edges_ms @ [ infinity ] in
  List.map
    (fun le ->
      (le, List.length (List.filter (fun ms -> ms <= le) restart_ms)))
    edges

let run_shard_benchmarks () =
  let quick = !quick_mode in
  Printf.printf
    "== Process sharding (gates: crash-free and 1-kill 2-shard runs bit-identical to in-process) ==\n%!";
  let problem = Moo.Benchmarks.zdt1 ~n:(if quick then 8 else 12) in
  let generations = if quick then 20 else 60 in
  let cfg =
    {
      Pmo2.Archipelago.default_config with
      n_islands = 4;
      migration_period = 5;
      nsga2 = { Ea.Nsga2.default_config with pop_size = 16 };
    }
  in
  let front_key (r : Pmo2.Archipelago.result) =
    List.sort compare
      (List.map
         (fun s ->
           (Array.to_list s.Moo.Solution.x, Array.to_list s.Moo.Solution.f, s.Moo.Solution.v))
         r.Pmo2.Archipelago.front)
  in
  let shard_config fault =
    {
      Shard.Supervisor.default with
      Shard.Supervisor.shards = 2;
      backoff_base = 0.002;
      backoff_cap = 0.02;
      fault;
    }
  in
  let baseline, base_ns =
    wall_ns (fun () -> Pmo2.Archipelago.run ~seed:21 ~generations problem cfg)
  in
  let (clean, clean_stats), clean_ns =
    wall_ns (fun () ->
        Shard.Supervisor.run ~seed:21 ~config:(shard_config None) ~generations problem cfg)
  in
  let fault =
    Some
      {
        Runtime.Fault.pf_shard = 1;
        pf_epoch = 2;
        pf_mode = Runtime.Fault.Kill;
        pf_times = 1;
      }
  in
  let (killed, kill_stats), kill_ns =
    wall_ns (fun () ->
        Shard.Supervisor.run ~seed:21 ~config:(shard_config fault) ~generations problem cfg)
  in
  if front_key clean <> front_key baseline then
    shard_fail "crash-free 2-shard front diverges from in-process";
  if front_key killed <> front_key baseline then
    shard_fail "1-kill 2-shard front diverges from in-process";
  if clean.Pmo2.Archipelago.evaluations <> baseline.Pmo2.Archipelago.evaluations then
    shard_fail "crash-free 2-shard run changed the evaluation count";
  if killed.Pmo2.Archipelago.evaluations <> baseline.Pmo2.Archipelago.evaluations then
    shard_fail "1-kill 2-shard run changed the evaluation count";
  if clean_stats.Shard.Supervisor.restarts <> 0 then
    shard_fail "crash-free run restarted a shard";
  if kill_stats.Shard.Supervisor.restarts < 1 then
    shard_fail "injected SIGKILL caused no supervised restart";
  if kill_stats.Shard.Supervisor.lost <> 0 then
    shard_fail "injected SIGKILL degraded the partition instead of restarting";
  let report name ns (st : Shard.Supervisor.stats option) =
    match st with
    | None -> Printf.printf "   %-26s %10.3f ms\n%!" name (ns /. 1e6)
    | Some st ->
      Printf.printf "   %-26s %10.3f ms   %d spawn%s, %d restart%s (bit-identical)\n%!" name
        (ns /. 1e6) st.Shard.Supervisor.spawns
        (if st.Shard.Supervisor.spawns = 1 then "" else "s")
        st.Shard.Supervisor.restarts
        (if st.Shard.Supervisor.restarts = 1 then "" else "s")
  in
  report "in-process" base_ns None;
  report "2 shards, crash-free" clean_ns (Some clean_stats);
  report "2 shards, 1 SIGKILL" kill_ns (Some kill_stats);
  let restart_ms = kill_stats.Shard.Supervisor.restart_ms in
  List.iter
    (fun ms -> Printf.printf "   restart latency %14.3f ms (detection to respawn)\n%!" ms)
    restart_ms;
  if quick then Printf.printf "   smoke mode: gates checked, BENCH_shard.json not written\n%!"
  else begin
    let stats_json (st : Shard.Supervisor.stats) =
      Obs.Json.Obj
        [
          ("shards_requested", Obs.Json.Float (float_of_int st.Shard.Supervisor.shards_requested));
          ("shards_used", Obs.Json.Float (float_of_int st.Shard.Supervisor.shards_used));
          ("spawns", Obs.Json.Float (float_of_int st.Shard.Supervisor.spawns));
          ("restarts", Obs.Json.Float (float_of_int st.Shard.Supervisor.restarts));
          ("kills", Obs.Json.Float (float_of_int st.Shard.Supervisor.kills));
          ("lost", Obs.Json.Float (float_of_int st.Shard.Supervisor.lost));
          ("backoff_ms", Obs.Json.Float st.Shard.Supervisor.backoff_ms);
        ]
    in
    write_results ~file:"BENCH_shard.json" ~pass:true
      [
        ( "benchmark",
          Obs.Json.String
            "multi-process sharded archipelago (determinism under crash + restart latency)" );
        ("generations", Obs.Json.Float (float_of_int generations));
        ("islands", Obs.Json.Float (float_of_int cfg.Pmo2.Archipelago.n_islands));
        ("in_process_ms", Obs.Json.Float (base_ns /. 1e6));
        ( "crash_free",
          Obs.Json.Obj
            [
              ("ms", Obs.Json.Float (clean_ns /. 1e6));
              ("stats", stats_json clean_stats);
              ("bit_identical", Obs.Json.Bool true);
            ] );
        ( "one_kill",
          Obs.Json.Obj
            [
              ("ms", Obs.Json.Float (kill_ns /. 1e6));
              ("stats", stats_json kill_stats);
              ("bit_identical", Obs.Json.Bool true);
              ( "restart_ms",
                Obs.Json.List (List.map (fun ms -> Obs.Json.Float ms) restart_ms) );
              ( "restart_latency_histogram",
                Obs.Json.List
                  (List.map
                     (fun (le, count) ->
                       Obs.Json.Obj
                         [
                           ("le_ms", Obs.Json.Float le);
                           ("count", Obs.Json.Float (float_of_int count));
                         ])
                     (restart_histogram restart_ms)) );
            ] );
      ]
  end

(* {1 LP kernels}

   [bench-simplex] times the simplex on the Geobacter model (608
   reactions) and writes BENCH_simplex.json:

   - simplex/cold-vs-warm: an FBA spec solved cold, on exactly its
     recorded path of 441 pivots and 12 refactorizations, then re-solved
     from the basis it returned — the same objective to 1e-6, and
     strictly fewer pivots warm;
   - simplex/warm-sweep: the Geobacter FVA + knockout-screen workload,
     every LP warm from the wild-type basis — pivots, the median and
     quartiles of the wall-clock over five samples, and the objective
     checksum.

   In --quick mode the sweep shrinks, every gate still applies, and no
   JSON is written. *)

let simplex_fail fmt =
  Printf.ksprintf (fun m -> Printf.eprintf "bench-simplex: %s\n" m; exit 1) fmt

(* [counter_delta] for several counters over one run of [f]. *)
let counters_delta names f =
  Obs.Metrics.set_enabled true;
  let cs = List.map Obs.Metrics.counter names in
  let before = List.map Obs.Metrics.counter_value cs in
  let r = f () in
  let deltas = List.map2 (fun c b -> Obs.Metrics.counter_value c - b) cs before in
  Obs.Metrics.set_enabled false;
  (r, deltas)

(* The cold Geobacter solve's pivot path: any change to the simplex or
   its workspace that moves a pivot or a refactorization moves these. *)
let cold_path_pivots = 441
let cold_path_refactors = 12

let bench_simplex_cold_warm ~quick =
  let g = Lazy.force geobacter in
  let t = g.Fba.Geobacter.net in
  let obj = Array.make (Fba.Network.n_reactions t) 0. in
  obj.(g.Fba.Geobacter.ep) <- 1.;
  obj.(g.Fba.Geobacter.bp) <- 0.3;
  let spec = Fba.Analysis.spec_of ~t ~obj in
  let objective_of = function
    | Lp.Simplex.Optimal { objective; _ } -> objective
    | Lp.Simplex.Infeasible -> simplex_fail "Geobacter FBA reported infeasible"
    | Lp.Simplex.Unbounded -> simplex_fail "Geobacter FBA reported unbounded"
  in
  (* Pivot/refactor accounting for the cold solve, then a warm re-solve
     from the basis it returned. *)
  let (cold_out, basis), counts =
    counters_delta [ "simplex.pivots"; "simplex.refactors" ] (fun () -> Lp.Simplex.solve spec)
  in
  let cold_pivots, cold_refactors =
    match counts with [ p; r ] -> (p, r) | _ -> assert false
  in
  if cold_pivots <> cold_path_pivots || cold_refactors <> cold_path_refactors then
    simplex_fail "the cold solve took %d pivots and %d refactorizations, not %d and %d"
      cold_pivots cold_refactors cold_path_pivots cold_path_refactors;
  let (warm_out, _), warm_pivots =
    counter_delta "simplex.pivots" (fun () -> Lp.Simplex.solve ?basis spec)
  in
  let cold_obj = objective_of cold_out in
  if Float.abs (cold_obj -. objective_of warm_out) > 1e-6 *. (1. +. Float.abs cold_obj) then
    simplex_fail "warm solve diverges from cold";
  if warm_pivots >= cold_pivots then
    simplex_fail "warm start did not save pivots (%d warm >= %d cold)" warm_pivots
      cold_pivots;
  let reps = if quick then 1 else 3 in
  let cold_ns = ref infinity in
  for _ = 1 to reps do
    let _, dt = wall_ns (fun () -> Lp.Simplex.solve spec) in
    if dt < !cold_ns then cold_ns := dt
  done;
  Printf.printf
    "   simplex/cold-vs-warm     obj %.6f  %d pivots (%d refactors) cold -> %d warm; cold %.1f ms\n%!"
    cold_obj cold_pivots cold_refactors warm_pivots (!cold_ns /. 1e6);
  Obs.Json.Obj
    [
      ("name", Obs.Json.String "simplex/cold-vs-warm");
      ("objective", Obs.Json.Float cold_obj);
      ("pivots_cold", Obs.Json.Float (float_of_int cold_pivots));
      ("pivots_warm", Obs.Json.Float (float_of_int warm_pivots));
      ("refactors", Obs.Json.Float (float_of_int cold_refactors));
      ("cold_ms", Obs.Json.Float (!cold_ns /. 1e6));
    ]

(* Warm sweep: the FVA + knockout-screen workload with every LP warm
   from the wild-type basis — objective flips for FVA (warm phase 2),
   pinned bounds for the knockouts (dual repair). *)
let bench_simplex_warm_sweep ~quick =
  let g = Lazy.force geobacter in
  let t = g.Fba.Geobacter.net in
  let n = Fba.Network.n_reactions t in
  let obj = Array.make n 0. in
  obj.(g.Fba.Geobacter.ep) <- 1.;
  obj.(g.Fba.Geobacter.bp) <- 0.3;
  let spec = Fba.Analysis.spec_of ~t ~obj in
  let n_total = Array.length spec.Lp.Simplex.obj in
  let take k l = List.filteri (fun i _ -> i < k) l in
  let fva_reactions =
    let all = List.init n Fun.id in
    if quick then take 12 all else all
  in
  let ko_candidates =
    List.init n Fun.id
    |> List.filter (fun j -> j <> g.Fba.Geobacter.ep && j <> g.Fba.Geobacter.bp)
    |> take (if quick then 12 else 200)
  in
  (* One pass of the sweep; returns the sum of its objectives. *)
  let work () =
    let checksum = ref 0. in
    (* Wild-type FBA seeds both halves of the sweep. *)
    let out0, b0 = Lp.Simplex.solve spec in
    (match out0 with
    | Lp.Simplex.Optimal { objective; _ } -> checksum := !checksum +. objective
    | _ -> simplex_fail "warm sweep: wild-type FBA must be optimal");
    List.iter
      (fun r ->
        List.iter
          (fun sense ->
            let o = Array.make n_total 0. in
            o.(r) <- sense;
            match fst (Lp.Simplex.solve ?basis:b0 { spec with Lp.Simplex.obj = o }) with
            | Lp.Simplex.Optimal { objective; _ } ->
              checksum := !checksum +. (sense *. objective)
            | Lp.Simplex.Unbounded -> ()
            | Lp.Simplex.Infeasible -> simplex_fail "warm sweep: FVA direction infeasible")
          [ 1.; -1. ])
      fva_reactions;
    List.iter
      (fun j ->
        let lo = Array.copy spec.Lp.Simplex.lo in
        let up = Array.copy spec.Lp.Simplex.up in
        lo.(j) <- 0.;
        up.(j) <- 0.;
        match fst (Lp.Simplex.solve ?basis:b0 { spec with Lp.Simplex.lo = lo; up }) with
        | Lp.Simplex.Optimal { objective; _ } -> checksum := !checksum +. objective
        | Lp.Simplex.Infeasible -> ()
        | Lp.Simplex.Unbounded -> simplex_fail "warm sweep: knockout LP unbounded")
      ko_candidates;
    !checksum
  in
  (* Repeated samples of the whole sweep; the kernel is deterministic,
     so every sample must spend the same pivots and hit the same
     checksum bits. *)
  let samples = 5 in
  let runs =
    Array.init samples (fun _ ->
        let (checksum, wall), deltas =
          counters_delta [ "simplex.pivots" ] (fun () -> wall_ns work)
        in
        let pivots = match deltas with [ p ] -> p | _ -> assert false in
        (pivots, checksum, wall /. 1e6))
  in
  let pivots, checksum, _ = runs.(0) in
  Array.iter
    (fun (p, c, _) ->
      if p <> pivots || not (Float.equal c checksum) then
        simplex_fail "warm sweep: a sample took %d pivots to checksum %h, the first %d to %h" p
          c pivots checksum)
    runs;
  let wall_ms = Array.map (fun (_, _, ms) -> ms) runs in
  let q1 = Numerics.Stats.quantile wall_ms 0.25
  and median = Numerics.Stats.median wall_ms
  and q3 = Numerics.Stats.quantile wall_ms 0.75 in
  Printf.printf
    "   simplex/warm-sweep       %7d pivots  %8.1f ms [%.1f, %.1f] (median [quartiles] of %d)  checksum %.6f\n%!"
    pivots median q1 q3 samples checksum;
  Obs.Json.Obj
    [
      ("name", Obs.Json.String "simplex/warm-sweep");
      ("fva_reactions", Obs.Json.Float (float_of_int (List.length fva_reactions)));
      ("knockouts", Obs.Json.Float (float_of_int (List.length ko_candidates)));
      ("pivots", Obs.Json.Float (float_of_int pivots));
      ("samples", Obs.Json.Float (float_of_int samples));
      ("wall_ms", Obs.Json.Float median);
      ("wall_ms_q1", Obs.Json.Float q1);
      ("wall_ms_q3", Obs.Json.Float q3);
      ("checksum", Obs.Json.Float checksum);
    ]

let run_simplex_benchmarks () =
  let quick = !quick_mode in
  Printf.printf
    "== LP kernels (gates: cold path 441 pivots / 12 refactors, warm = cold to 1e-6, warm \
     strictly cheaper) ==\n%!";
  let lp = bench_simplex_cold_warm ~quick in
  let sweep = bench_simplex_warm_sweep ~quick in
  if quick then Printf.printf "   smoke mode: gates checked, BENCH_simplex.json not written\n%!"
  else begin
    write_results ~file:"BENCH_simplex.json" ~pass:true
      [
        ("benchmark", Obs.Json.String "simplex cold-vs-warm and FVA/knockout warm sweep");
        ("kernels", Obs.Json.List [ lp; sweep ]);
      ]
  end

(* The paper's experiments, then the harness's own entries. *)
let experiments =
  Experiments.Catalog.all
  @ [
      ( "export-data",
        fun () ->
          let files = Experiments.Export.all ~dir:"results" in
          List.iter (Printf.printf "   wrote %s\n") files );
      ("bench", run_micro_benchmarks);
      ("bench-obs", run_obs_benchmarks);
      ("bench-parallel", run_parallel_benchmarks);
      ("bench-cache", run_cache_benchmarks);
      ("bench-shard", run_shard_benchmarks);
      ("bench-simplex", run_simplex_benchmarks);
    ]

let run_one name =
  match List.assoc_opt name experiments with
  | Some f ->
    let t0 = Obs.Clock.now_ns () in
    f ();
    Printf.printf "   [%s done in %.1f s]\n\n%!" name
      (float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9)
  | None ->
    Printf.eprintf "unknown experiment %S; available: %s\n" name
      (String.concat ", " (List.map fst experiments));
    exit 1

let () =
  let scale =
    match Experiments.Scale.current () with
    | Experiments.Scale.Quick -> "quick"
    | Experiments.Scale.Full -> "full"
  in
  Printf.printf
    "Design of Robust Metabolic Pathways (DAC'11) — experiment harness (scale: %s)\n\n%!"
    scale;
  let args = List.tl (Array.to_list Sys.argv) in
  quick_mode := List.mem "--quick" args;
  match List.filter (fun a -> a <> "--quick") args with
  | _ :: _ as names -> List.iter run_one names
  | [] -> List.iter (fun (name, _) -> run_one name) experiments
