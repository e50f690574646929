(* Command-line interface to the robust metabolic pathway design library.

     robustpath photo --ci 270 --export low --generations 200
     robustpath geobacter --generations 60
     robustpath robust --ci 270 --trials 2000
     robustpath experiment table1 fig4
     robustpath list *)

open Cmdliner

(* User mistakes (bad flag values, missing/corrupt/mismatched checkpoint
   files, unparsable trace files) surface as clean one-line errors, not
   uncaught exceptions. *)
let with_user_errors f =
  try f () with
  | Invalid_argument msg | Runtime.Checkpoint.Corrupt msg | Sys_error msg ->
    Printf.eprintf "robustpath: %s\n" msg;
    exit 2
  | Obs.Json.Parse_error msg ->
    Printf.eprintf "robustpath: invalid JSON: %s\n" msg;
    exit 2

(* Checkpoint/resume flags, shared by the optimization subcommands. *)
let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE" ~doc:"Save the archipelago state to $(docv) while running.")

let checkpoint_every_arg =
  Arg.(
    value
    & opt int 1
    & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Checkpoint every $(docv) migration epochs (default 1).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by --checkpoint.  The seed, problem and \
           configuration flags must match the original run; the result is then identical \
           to the uninterrupted run.")

let keep_checkpoints_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "keep-checkpoints" ] ~docv:"K"
        ~doc:
          "Write each checkpoint to a numbered history file (FILE.NNNNNN) and keep only \
           the $(docv) newest, pruning older ones.  Resume from the newest surviving \
           file.  Requires --checkpoint.")

(* Observability flags, shared by the optimization subcommands. *)
let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.json"
        ~doc:
          "Record wall-clock spans (ODE solves, simplex solves, epochs, checkpoints) and \
           write a Chrome trace_event file to $(docv), loadable in Perfetto or \
           chrome://tracing.  Summarize with $(b,robustpath trace-summary).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE.jsonl"
        ~doc:
          "Record counters, gauges and histograms (ODE steps, simplex pivots, guard \
           faults, per-epoch hypervolume) and append one JSON snapshot line per \
           migration epoch to $(docv).  On sharded runs each snapshot already folds in \
           every committed worker contribution.")

let metrics_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "metrics-interval" ] ~docv:"SEC"
        ~doc:
          "Also flush a metrics snapshot (label \"interval\") at least every $(docv) \
           seconds, so a run killed mid-epoch still leaves recent data.  Requires \
           --metrics.  On sharded runs the flush rides the supervisor tick loop and \
           reflects worker roll-ups as of the last committed phase; in-process it is \
           checked at epoch boundaries.")

let flight_recorder_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"PREFIX"
        ~doc:
          "Keep each process's flight recorder (its last 256 events) in memory-mapped \
           sidecar files under $(docv): PREFIX.ring in-process, or PREFIX.supervisor.ring plus \
           PREFIX.shardN.incM.ring per worker incarnation when sharded.  The files \
           survive SIGKILL; render one with $(b,robustpath inspect).")

(* Periodic JSONL flushing for --metrics-interval.  Timed on the
   monotonic clock; called from the supervisor tick loop (sharded) or at
   epoch boundaries (in-process). *)
let interval_tick ~metrics_oc ~interval =
  match (metrics_oc, interval) with
  | Some oc, Some sec ->
    if not (sec > 0.) then invalid_arg "--metrics-interval must be > 0";
    let period_ns = int_of_float (sec *. 1e9) in
    let next = ref (Obs.Clock.now_ns () + period_ns) in
    Some
      (fun () ->
        let now = Obs.Clock.now_ns () in
        if now >= !next then begin
          next := now + period_ns;
          Obs.Metrics.write_snapshot ~label:"interval" oc
        end)
  | None, Some _ -> invalid_arg "--metrics-interval requires --metrics"
  | _, None -> None

(* Enable the requested probes around [f], hand it the per-epoch observer
   (one JSONL snapshot per epoch when --metrics is given) plus the
   periodic interval tick, and flush the trace/metrics files afterwards —
   including on error paths, so a crashed run still leaves a usable
   trace. *)
let with_observability ~trace ~metrics ?metrics_interval f =
  if Option.is_some trace then Obs.Span.set_enabled true;
  let metrics_oc = Option.map open_out metrics in
  if Option.is_some metrics_oc then Obs.Metrics.set_enabled true;
  let tick = interval_tick ~metrics_oc ~interval:metrics_interval in
  let observer =
    Option.map
      (fun oc ->
        let jsonl = Pmo2.Archipelago.jsonl_observer oc in
        fun r ->
          jsonl r;
          match tick with Some t -> t () | None -> ())
      metrics_oc
  in
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | Some path ->
        Obs.Span.set_enabled false;
        Obs.Span.write_chrome ~path;
        Printf.printf "trace: %d spans written to %s\n" (List.length (Obs.Span.events ())) path
      | None -> ());
      match metrics_oc with
      | Some oc ->
        Obs.Metrics.set_enabled false;
        close_out_noerr oc;
        Printf.printf "metrics: snapshots written to %s\n" (Option.get metrics)
      | None -> ())
    (fun () -> f ~observer ~tick)

(* Parallelism flag, shared by the optimization subcommands: size the
   process-wide persistent pool and hand back the pool for the config's
   population evaluators.  Results are bit-identical at any width. *)
let domains_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Evolve islands and evaluate populations on a persistent pool of $(docv) \
           worker domains (default: the runtime's recommended domain count).  Results \
           are bit-for-bit identical for any $(docv); only wall clock changes.")

let pool_of_domains domains =
  Parallel.Pool.set_default_domains domains;
  Parallel.Pool.get ()

(* Process-sharding flags, shared by the optimization subcommands.  A
   sharded run forks workers before any domain may exist, so it excludes
   --domains parallelism: islands evaluate sequentially inside each
   worker and no pool is created. *)
let shards_arg =
  Arg.(
    value
    & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition the islands across $(docv) supervised worker processes (fork-based; \
           clamped to the island count).  Fronts are bit-for-bit identical to the \
           in-process run at any $(docv), even across worker crashes, SIGKILL \
           preemptions and supervised restarts.  0 (the default) runs in-process.  \
           Sharded runs ignore --domains and evaluate sequentially inside each worker.")

let shard_retry_arg =
  Arg.(
    value
    & opt int Shard.Supervisor.(default.retry_budget)
    & info [ "shard-retry" ] ~docv:"K"
        ~doc:
          "Restart a crashed or wedged worker up to $(docv) times (exponential backoff) \
           before its shard is declared lost and the islands are redistributed over \
           fewer workers — down to in-process when none remain.")

let fault_kill_shard_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-kill-shard" ] ~docv:"SPEC"
        ~doc:
          "Fault injection for supervision testing: SHARD:EPOCH[:TIMES][:kill|wedge] \
           kills (or wedges) the worker running shard SHARD at epoch EPOCH, TIMES times \
           (default once).  The run must still finish with the exact in-process front.")

let report_shard_stats ~metrics st =
  match (metrics, st) with
  | Some _, Some s ->
    Printf.printf
      "shards: %d used of %d requested, %d spawns, %d restarts, %d kills, %d lost, %.1f ms backoff\n"
      s.Shard.Supervisor.shards_used s.Shard.Supervisor.shards_requested
      s.Shard.Supervisor.spawns s.Shard.Supervisor.restarts s.Shard.Supervisor.kills
      s.Shard.Supervisor.lost s.Shard.Supervisor.backoff_ms;
    (match List.sort Float.compare s.Shard.Supervisor.restart_ms with
    | [] -> ()
    | sorted ->
      let a = Array.of_list sorted in
      let q p = a.(Stdlib.min (Array.length a - 1) (int_of_float (float_of_int (Array.length a) *. p))) in
      Printf.printf "restart latency ms: p50 %.2f  p90 %.2f  p99 %.2f\n" (q 0.5) (q 0.9)
        (q 0.99))
  | _ -> ()

(* Evaluation-cache flag, shared by the optimization subcommands. *)
let cache_size_arg =
  Arg.(
    value
    & opt int 4096
    & info [ "cache-size" ] ~docv:"N"
        ~doc:
          "Memoize genotype evaluations per island in an $(docv)-entry LRU: offspring \
           bit-identical to a recent candidate replay the cached result instead of \
           re-integrating/re-solving.  Fronts are bit-for-bit identical at any size; \
           0 disables the cache.")

let cache_size_of n =
  if n < 0 then invalid_arg "--cache-size must be >= 0";
  if n = 0 then None else Some n

let report_cache_stats ~metrics r =
  match (metrics, Array.length r.Pmo2.Archipelago.cache_stats) with
  | None, _ | _, 0 -> ()
  | Some _, _ ->
    let total = Cache.Memo.zero_stats in
    let total =
      Array.fold_left
        (fun acc s -> Cache.Memo.add_stats acc s)
        total r.Pmo2.Archipelago.cache_stats
    in
    Printf.printf "cache: %d hits / %d lookups (%.1f%% hit rate), %d evictions\n"
      total.Cache.Memo.hits
      (total.Cache.Memo.hits + total.Cache.Memo.misses)
      (100. *. Cache.Memo.hit_rate total)
      total.Cache.Memo.evictions

(* Pool counters tick while --metrics has observability enabled and
   survive the disable, so the summary can read them after the run.
   Sharded runs have no pool ([None]). *)
let report_pool_stats ~metrics pool =
  match (metrics, pool) with
  | None, _ | _, None -> ()
  | Some _, Some pool ->
    let s = Parallel.Pool.stats () in
    Printf.printf "pool: %d domains, %d tasks, %.1f ms idle\n" (Parallel.Pool.domains pool)
      s.Parallel.Pool.tasks
      (float_of_int s.Parallel.Pool.idle_ns /. 1e6)

let report_faults r =
  Array.iteri
    (fun i s ->
      if Runtime.Guard.failures s > 0 then
        Printf.printf "island %d: %d evaluations penalized (%d raised, %d non-finite) of %d\n"
          i
          (Runtime.Guard.failures s)
          s.Runtime.Guard.exceptions s.Runtime.Guard.non_finite s.Runtime.Guard.evaluations)
    r.Pmo2.Archipelago.guard_stats;
  if r.Pmo2.Archipelago.failures > 0 then
    Printf.printf "island crashes absorbed by the supervisor: %d\n"
      r.Pmo2.Archipelago.failures

(* {1 The optimization runner}

   [photo] and [geobacter] run the same archipelago under the same
   flags; only the problem, its initial solutions, the variation
   operator and the front printout differ.  The term applies the shared
   flags and yields the runner: it evolves [problem] from [initial]
   in-process on the pool or across supervised shards, hands the result
   to [print], then prints the run's fault, cache, pool and shard
   summaries. *)
let optimizer =
  let optimize domains cache_size shards shard_retry kill_spec checkpoint checkpoint_every keep
      resume trace metrics metrics_interval flight ~generations ~pop ~seed ~variation ~initial
      ~print problem =
    let sharded = shards > 0 in
    (match flight with
    | Some prefix when not sharded -> Obs.Ring.attach ~path:(prefix ^ ".ring") ~lane:0
    | _ -> ());
    let pool = if sharded then None else Some (pool_of_domains domains) in
    let cfg =
      {
        Pmo2.Archipelago.default_config with
        migration_period = Stdlib.max 1 (generations / 4);
        nsga2 = { Ea.Nsga2.default_config with pop_size = pop; variation; pool };
        guard_penalty = Some 1e12;
        parallel = not sharded;
        cache_size = cache_size_of cache_size;
      }
    in
    let r, shard_stats =
      with_observability ~trace ~metrics ?metrics_interval @@ fun ~observer ~tick ->
      if sharded then
        let config =
          {
            Shard.Supervisor.default with
            Shard.Supervisor.shards;
            retry_budget = shard_retry;
            fault = Option.map Runtime.Fault.parse_kill_spec kill_spec;
            ring_prefix = flight;
            tick;
          }
        in
        let r, st =
          Shard.Supervisor.run ~seed ~initial ?checkpoint ~checkpoint_every
            ?keep_checkpoints:keep ?resume ?observer ~config ~generations problem cfg
        in
        (r, Some st)
      else
        ( Pmo2.Archipelago.run ~seed ~initial ?checkpoint ~checkpoint_every
            ?keep_checkpoints:keep ?resume ?observer ~generations problem cfg,
          None )
    in
    print r;
    report_faults r;
    report_cache_stats ~metrics r;
    report_pool_stats ~metrics pool;
    report_shard_stats ~metrics shard_stats
  in
  Term.(
    const optimize $ domains_arg $ cache_size_arg $ shards_arg $ shard_retry_arg
    $ fault_kill_shard_arg $ checkpoint_arg $ checkpoint_every_arg $ keep_checkpoints_arg
    $ resume_arg $ trace_arg $ metrics_arg $ metrics_interval_arg $ flight_recorder_arg)

(* The leaf's condition flags, shared by [photo] and [robust]. *)
let ci_arg =
  Arg.(value & opt int 270 & info [ "ci" ] ~doc:"Intercellular CO2 (165, 270 or 490 ppm).")

let export_arg =
  Arg.(value & opt string "low" & info [ "export" ] ~doc:"Triose-P export: low, high, or a rate.")

(* {1 photo} *)

let photo_cmd =
  let run ci export generations pop seed optimize =
    with_user_errors @@ fun () ->
    let env = Photo.Params.of_flags ~ci ~export in
    let problem = Photo.Leaf.problem env in
    let natural = Moo.Solution.evaluate problem (Array.make Photo.Enzyme.count 1.) in
    let print r =
      let u, n = Photo.Leaf.natural_point env in
      Printf.printf "condition: %s, triose-P export %g mmol/l/s\n" env.Photo.Params.label
        env.Photo.Params.tp_export;
      Printf.printf "natural: uptake %.3f, nitrogen %.0f\n" u n;
      Printf.printf "front (%d points, %d evaluations):\n"
        (List.length r.Pmo2.Archipelago.front)
        r.Pmo2.Archipelago.evaluations;
      List.iter
        (fun s ->
          Printf.printf "  uptake %8.3f   nitrogen %10.0f\n" (Photo.Leaf.uptake_of s)
            (Photo.Leaf.nitrogen_of s))
        (Moo.Mine.equally_spaced ~k:15 r.Pmo2.Archipelago.front)
    in
    optimize ~generations ~pop ~seed ~variation:None ~initial:[ natural ] ~print problem
  in
  let generations =
    Arg.(value & opt int 120 & info [ "generations" ] ~doc:"Generations per island.")
  in
  let pop = Arg.(value & opt int 32 & info [ "pop" ] ~doc:"Island population size.") in
  let seed = Arg.(value & opt int 2011 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "photo" ~doc:"Optimize the C3 leaf: CO2 uptake vs protein-nitrogen (PMO2).")
    Term.(const run $ ci_arg $ export_arg $ generations $ pop $ seed $ optimizer)

(* {1 geobacter} *)

let geobacter_cmd =
  let run generations pop seed optimize =
    with_user_errors @@ fun () ->
    let g = Fba.Geobacter.build () in
    let problem = Fba.Moo_problem.problem g in
    let seeds = Fba.Moo_problem.seeds g ~levels:[ 0.283; 0.292; 0.301 ] in
    let variation = Some (Fba.Moo_problem.flux_variation g ()) in
    let print r =
      let feasible = List.filter (fun s -> s.Moo.Solution.v <= 0.) r.Pmo2.Archipelago.front in
      Printf.printf "front: %d points (%d near-steady-state)\n"
        (List.length r.Pmo2.Archipelago.front)
        (List.length feasible);
      List.iter
        (fun s ->
          Printf.printf "  EP %8.3f   BP %.4f\n" (Fba.Moo_problem.ep_of s)
            (Fba.Moo_problem.bp_of s))
        (Moo.Mine.equally_spaced ~k:8 feasible)
    in
    optimize ~generations ~pop ~seed ~variation ~initial:seeds ~print problem
  in
  let generations =
    Arg.(value & opt int 60 & info [ "generations" ] ~doc:"Generations per island.")
  in
  let pop = Arg.(value & opt int 40 & info [ "pop" ] ~doc:"Island population size.") in
  let seed = Arg.(value & opt int 2011 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "geobacter"
       ~doc:"Optimize Geobacter: electron vs biomass production over 608 fluxes.")
    Term.(const run $ generations $ pop $ seed $ optimizer)

(* {1 inspect} *)

let inspect_cmd =
  let run path =
    with_user_errors @@ fun () ->
    if Obs.Ring.is_ring_file ~path then Format.printf "%a@?" Obs.Ring.pp (Obs.Ring.read ~path)
    else Format.printf "%a@?" Pmo2.Archipelago.pp_info (Pmo2.Archipelago.inspect path)
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Print a checkpoint's metadata (problem, progress, per-island telemetry) without \
          resuming it, or render a flight-recorder dump left by --flight-recorder (the \
          last 256 events of a process, SIGKILL included).  Dispatches on the file \
          magic.  Exits 2 on a missing or corrupt file.")
    Term.(const run $ path)

(* {1 trace-summary} *)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let trace_summary_cmd =
  let run path top by_process =
    with_user_errors @@ fun () ->
    match Obs.Span.events_of_chrome (Obs.Json.parse (read_whole_file path)) with
    | [] -> print_endline "no spans recorded"
    | events ->
      Format.printf "%a@?" (Obs.Span.pp_summary ~top) (Obs.Span.summarize ~by_process events)
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.json") in
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) spans with the most self time.")
  in
  let by_process =
    Arg.(
      value & flag
      & info [ "by-process" ]
          ~doc:
            "Group the table by (process, span name) instead of span name alone — the \
             per-lane view of a merged multi-shard trace.")
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:
         "Summarize a Chrome trace written by --trace: top spans by self time (total \
          minus time in child spans, attributed within each process lane) with \
          p50/p90/p99 durations.  Exits 2 on a missing or unparsable file.")
    Term.(const run $ path $ top $ by_process)

(* {1 report} *)

let report_cmd =
  let run trace metrics checkpoint =
    with_user_errors @@ fun () ->
    if trace = None && metrics = None && checkpoint = None then begin
      Printf.eprintf "robustpath: report needs at least one of --trace, --metrics, --checkpoint\n";
      exit 2
    end;
    (match checkpoint with
    | Some path ->
      Format.printf "== checkpoint ==@\n%a" Pmo2.Archipelago.pp_info
        (Pmo2.Archipelago.inspect path)
    | None -> ());
    let events =
      Option.map (fun path -> Obs.Span.events_of_chrome (Obs.Json.parse (read_whole_file path))) trace
    in
    let mf = Option.map (fun path -> Obs.Report.read_metrics ~path) metrics in
    Format.printf "%a@?" (fun ppf () -> Obs.Report.pp ?trace:events ?metrics:mf ppf ()) ()
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.json" ~doc:"Chrome trace written by --trace.")
  in
  let metrics =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE.jsonl" ~doc:"Metrics JSONL written by --metrics.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE" ~doc:"Checkpoint written by --checkpoint.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Join a run's trace, metrics and checkpoint into one summary: per-process \
          self-time table, shard restart/kill/backoff timeline with restart-latency \
          quantiles, cache hit rates, ODE solver counts and the hypervolume \
          trajectory.  Sections without data are omitted; at least one input is \
          required.  Torn metric lines (e.g. from a killed run) are skipped with a \
          warning.")
    Term.(const run $ trace $ metrics $ checkpoint)

(* {1 robust} *)

let robust_cmd =
  let run ci export trials =
    with_user_errors @@ fun () ->
    let env = Photo.Params.of_flags ~ci ~export in
    let uptake = Experiments.Runs.uptake_property ~env in
    let natural = Array.make Photo.Enzyme.count 1. in
    let g = Robustness.Yield.gamma_pool ~seed:42 ~f:uptake ~trials natural in
    Printf.printf "natural leaf under %s: nominal %.3f, global yield %.1f%% (%d trials)\n"
      env.Photo.Params.label g.Robustness.Yield.nominal g.Robustness.Yield.yield_pct trials;
    let profile = Robustness.Screen.local_analysis ~seed:42 ~f:uptake ~trials:200 natural in
    List.iter
      (fun p ->
        if p.Robustness.Screen.yield_pct < 100. then
          Printf.printf "  sensitive: %-22s %6.1f%%\n"
            Photo.Enzyme.names.(p.Robustness.Screen.index)
            p.Robustness.Screen.yield_pct)
      profile
  in
  let trials =
    Arg.(value & opt int 1000 & info [ "trials" ] ~doc:"Global ensemble size (paper: 5000).")
  in
  Cmd.v
    (Cmd.info "robust" ~doc:"Robustness screen (Γ yields) of the natural leaf.")
    Term.(const run $ ci_arg $ export_arg $ trials)

(* {1 experiment} *)

let experiment_names sep = String.concat sep (List.map fst Experiments.Catalog.all)

let experiment_cmd =
  let run names =
    List.iter
      (fun name ->
        match List.assoc_opt name Experiments.Catalog.all with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S (try: %s)\n" name (experiment_names ", ");
          exit 1)
      names
  in
  let names = Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         (Printf.sprintf "Regenerate a table/figure of the paper (%s)." (experiment_names ", ")))
    Term.(const run $ names)

let list_cmd =
  let run () =
    print_endline
      "subcommands: photo, geobacter, robust, inspect, trace-summary, report, experiment, list";
    print_endline ("experiments: " ^ experiment_names " ")
  in
  Cmd.v (Cmd.info "list" ~doc:"List subcommands and experiments.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "robustpath" ~version:"1.0.0"
      ~doc:"Design of robust metabolic pathways (DAC'11 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            photo_cmd;
            geobacter_cmd;
            robust_cmd;
            inspect_cmd;
            trace_summary_cmd;
            report_cmd;
            experiment_cmd;
            list_cmd;
          ]))
