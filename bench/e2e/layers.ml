(* Per-layer metrics of one traced rep.  Span times come from the rep's
   Chrome trace read back and reduced by [Obs.Span.summarize] — the code
   behind [robustpath trace-summary] and [report] — so the benchmark and
   the report use the same names; counts come from the merged
   [Obs.Metrics] counters (shard workers' deltas folded in).

   Layer time is reported as a share, never as seconds, so a layer a
   workload bypasses reads 0 % rather than a constant 0 s.  The bases:
   - [self_pct]: share of the timed phase's busy span self time — every
     span's self time summed over processes and domains, minus the two
     wait spans ([shard.epoch] on the supervisor, [pool.run] on the
     submitting domain);
   - [wall_pct]: span time as a share of the timed phase;
     [shard.wait_pct] is the supervisor's [shard.epoch] self time, i.e.
     its wait on workers, on the same base;
   - [setup_pct]: span time as a share of set-up.
   [trace.self_s] is the busy base itself, so a [self_pct] converts back
   to seconds. *)

let wait_spans = [ "shard.epoch"; "pool.run" ]

let compute ~events ~counters ~domains =
  (* Every lane shares the supervisor's monotonic origin, so a span
     belongs to the timed phase iff it starts inside [e2e.run]. *)
  let run_start =
    List.fold_left
      (fun acc e -> if e.Obs.Span.name = "e2e.run" then e.Obs.Span.start_ns else acc)
      max_int events
  in
  let in_run e = e.Obs.Span.start_ns >= run_start in
  let rows = Obs.Span.summarize (List.filter in_run events) in
  let setup_rows = Obs.Span.summarize (List.filter (fun e -> not (in_run e)) events) in
  let sum rows field names =
    List.fold_left
      (fun acc r -> if List.mem r.Obs.Span.row_name names then acc + field r else acc)
      0 rows
  in
  let self = sum rows (fun r -> r.Obs.Span.self_ns) in
  let total = sum rows (fun r -> r.Obs.Span.total_ns) in
  let setup_total = sum setup_rows (fun r -> r.Obs.Span.total_ns) in
  let busy =
    List.fold_left
      (fun acc r -> if List.mem r.Obs.Span.row_name wait_spans then acc else acc + r.Obs.Span.self_ns)
      0 rows
  in
  let run_ns = total [ "e2e.run" ] and setup_ns = setup_total [ "e2e.setup" ] in
  let ratio num den = if den <= 0. then 0. else num /. den in
  let pct num den = 100. *. ratio (float_of_int num) (float_of_int den) in
  let self_pct names = pct (self names) busy in
  let wall_pct names = pct (total names) run_ns in
  let setup_pct names = pct (setup_total names) setup_ns in
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  let fcount name = float_of_int (count name) in
  let seconds ns = float_of_int ns /. 1e9 in
  let capacity_ns = float_of_int run_ns *. float_of_int domains in
  let hits = count "cache.hits" and lookups = count "cache.hits" + count "cache.misses" in
  [
    ("trace.wall_s", seconds run_ns);
    ("trace.self_s", seconds busy);
    ("unattributed_s", seconds (self [ "e2e.run" ]));
    ("photo.eval.calls", fcount "photo.eval.calls");
    ("photo.eval.self_pct", self_pct [ "photo.eval" ]);
    ("ode.integrate.self_pct", self_pct [ "ode.integrate" ]);
    ("ode.integrations", fcount "ode.integrations");
    ("ode.rhs_evals", fcount "ode.rhs_evals");
    ("ode.steps", fcount "ode.steps");
    ("ode.rejected", fcount "ode.rejected");
    ("ode.tier.stiff", fcount "ode.tier.stiff");
    ("ode.jacobians", fcount "ode.jacobians");
    ("fba.variation.calls", fcount "fba.variation.calls");
    ("fba.variation.self_pct", self_pct [ "fba.variation" ]);
    ("fba.eval.calls", fcount "fba.eval.calls");
    ("fba.eval.self_pct", self_pct [ "fba.eval"; "fba.violation" ]);
    ("fba.seeds.setup_pct", setup_pct [ "fba.seeds" ]);
    ("fba.projector.setup_pct", setup_pct [ "fba.projector" ]);
    ("lp.eps_sweep.wall_pct", wall_pct [ "lp.eps_sweep" ]);
    ("lp.fva.wall_pct", wall_pct [ "lp.fva" ]);
    ("lp.ko_single.wall_pct", wall_pct [ "lp.ko_single" ]);
    ("lp.ko_pairs.wall_pct", wall_pct [ "lp.ko_pairs" ]);
    ("simplex.solve.self_pct", self_pct [ "simplex.solve"; "simplex.solve_dual" ]);
    ("simplex.solves", fcount "simplex.solves");
    ("simplex.pivots", fcount "simplex.pivots");
    ("simplex.dual_pivots", fcount "simplex.dual_pivots");
    ("simplex.refactors", fcount "simplex.refactors");
    ("simplex.warm_starts", fcount "simplex.warm_starts");
    ("simplex.warm_rejects", fcount "simplex.warm_rejects");
    ("cache.hits", float_of_int hits);
    ("cache.misses", fcount "cache.misses");
    ("cache.dedup_hits", fcount "cache.dedup_hits");
    ("cache.hit_rate", ratio (float_of_int hits) (float_of_int lookups));
    ("cache.warm_hits", fcount "cache.warm_hits");
    ("cache.warm_misses", fcount "cache.warm_misses");
    ("guard.evaluations", fcount "guard.evaluations");
    ("guard.failures", fcount "guard.exceptions" +. fcount "guard.non_finite");
    ("checkpoint.saves", fcount "checkpoint.saves");
    ("checkpoint.bytes", fcount "checkpoint.bytes");
    ("checkpoint.save.self_pct", self_pct [ "checkpoint.save" ]);
    ("pmo2.epochs", fcount "pmo2.epochs");
    ("pmo2.self_pct", self_pct [ "arch.epoch"; "arch.observe"; "worker.step"; "worker.inject" ]);
    ("pool.tasks", fcount "pool.tasks");
    ("pool.steals", fcount "pool.steals");
    ("pool.idle_pct", 100. *. ratio (fcount "pool.idle_ns") capacity_ns);
    ("pool.efficiency", ratio (float_of_int (total [ "photo.eval" ])) capacity_ns);
    ("shard.spawns", fcount "shard.spawns");
    ("shard.restarts", fcount "shard.restarts");
    ("shard.frames", fcount "shard.frames");
    ("shard.frame_bytes", fcount "shard.frame_bytes");
    ("shard.wait_pct", pct (self [ "shard.epoch" ]) run_ns);
    ("robustness.trials", fcount "robustness.trials");
    ("robustness.gamma.wall_pct", wall_pct [ "robustness.gamma" ]);
  ]

(* Calls of one span name across every process lane: the smoke leg
   checks that sharded workers' spans reach the merged trace. *)
let span_calls events name =
  List.fold_left
    (fun acc r -> if r.Obs.Span.row_name = name then acc + r.Obs.Span.calls else acc)
    0 (Obs.Span.summarize events)
