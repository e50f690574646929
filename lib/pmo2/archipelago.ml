type algorithm =
  | Nsga2 of Ea.Nsga2.config
  | Spea2 of Ea.Spea2.config

type config = {
  n_islands : int;
  migration_period : int;
  migration_prob : float;
  migrants : int;
  topology : Topology.t;
  nsga2 : Ea.Nsga2.config;
  algorithms : algorithm list;
  parallel : bool;
  guard_penalty : float option;
  cache_size : int option;
}

let default_config =
  {
    n_islands = 2;
    migration_period = 200;
    migration_prob = 0.5;
    migrants = 5;
    topology = Topology.All_to_all;
    nsga2 = Ea.Nsga2.default_config;
    algorithms = [];
    parallel = false;
    guard_penalty = None;
    cache_size = None;
  }

let log_src = Logs.Src.create "pmo2.archipelago" ~doc:"Island-model supervisor"

module Log = (val Logs.src_log log_src)

(* Observability probes (single-atomic-load no-ops while disabled).
   Counters accumulate across the run; gauges carry the per-epoch values
   that make the paper's convergence curves (hypervolume vs effort). *)
let m_epochs = Obs.Metrics.counter "arch.epochs"
let m_migrations = Obs.Metrics.counter "arch.migrations"
let m_island_failures = Obs.Metrics.counter "arch.island_failures"
let g_hypervolume = Obs.Metrics.gauge "arch.hypervolume"
let g_archive_size = Obs.Metrics.gauge "arch.archive_size"
let g_evaluations = Obs.Metrics.gauge "arch.evaluations"
let g_epoch = Obs.Metrics.gauge "arch.epoch"

type state = {
  config : config;
  problem : Moo.Problem.t;
  rng : Numerics.Rng.t; (* drives migration decisions *)
  islands : Island.t array;
  guards : Runtime.Guard.t array; (* one per island when telemetry is on, else empty *)
  memos : Moo.Solution.t Cache.Memo.t array; (* one per island when caching is on, else empty *)
  edges : (int * int) list;
  arch : Moo.Archive.t;
  mutable gens : int;
  mutable failures : int; (* island crashes caught by the supervisor *)
  (* Telemetry only — not checkpointed; a resumed run restarts these. *)
  mutable epoch_migrations : int; (* deliveries during the last epoch *)
  mutable hv_ref : float array option; (* fixed hypervolume reference point *)
}

let init ?(seed = 42) ?(initial = []) problem config =
  if config.n_islands < 1 then invalid_arg "Archipelago.init: n_islands must be >= 1";
  if config.migration_period < 1 then
    invalid_arg "Archipelago.init: migration_period must be >= 1";
  if not (config.migration_prob >= 0. && config.migration_prob <= 1.) then
    invalid_arg "Archipelago.init: migration_prob must be in [0, 1]";
  let master = Numerics.Rng.create seed in
  let migration_rng = Numerics.Rng.split master in
  let algo_of i =
    match config.algorithms with
    | [] -> Nsga2 config.nsga2
    | algos -> List.nth algos (i mod List.length algos)
  in
  (* With telemetry on, every island evaluates through its own guard, so
     failure counts attribute cleanly even under the parallel schedule. *)
  let guards =
    match config.guard_penalty with
    | None -> [||]
    | Some penalty -> Array.init config.n_islands (fun _ -> Runtime.Guard.create ~penalty ())
  in
  (* One memo per island: islands never share a cache, so the parallel
     schedule stays contention-free and each island's hit pattern (hence
     its LRU eviction order) is a pure function of its own evaluation
     sequence — deterministic at any domain count. *)
  let memos =
    match config.cache_size with
    | None -> [||]
    | Some cap ->
      if cap < 1 then invalid_arg "Archipelago.init: cache_size must be >= 1";
      Array.init config.n_islands (fun _ -> Cache.Memo.create ~capacity:cap)
  in
  let islands =
    Array.init config.n_islands (fun i ->
        let rng = Numerics.Rng.split master in
        let problem =
          if Array.length guards = 0 then problem
          else Runtime.Guard.wrap_problem guards.(i) problem
        in
        let memo = if Array.length memos = 0 then None else Some memos.(i) in
        match algo_of i with
        | Nsga2 cfg -> Island.nsga2 ~initial problem { cfg with Ea.Nsga2.cache = memo } rng
        | Spea2 cfg -> Island.spea2 ~initial problem { cfg with Ea.Spea2.cache = memo } rng)
  in
  {
    config;
    problem;
    rng = migration_rng;
    islands;
    guards;
    memos;
    edges = Topology.edges config.topology ~n:config.n_islands;
    arch = Moo.Archive.create ();
    gens = 0;
    failures = 0;
    epoch_migrations = 0;
    hv_ref = None;
  }

let collect st =
  Array.iter (fun isl -> Moo.Archive.add_all st.arch (Island.front isl)) st.islands

(* {1 Supervised epochs} *)

(* Step one island, catching everything a crashing objective or algorithm
   can throw (interrupts and heap exhaustion still escape). *)
let try_step isl period =
  match Island.step isl period with
  | () -> None
  | exception ((Sys.Break | Out_of_memory | Stack_overflow) as e) -> raise e
  (* robustlint: allow R4 — supervisor catch-all; fatal exceptions are re-raised above *)
  | exception e -> Some (Printexc.to_string e)

(* The recovery policy for a failed island step: roll back to the
   pre-epoch snapshot and retry once sequentially (rescues
   parallelism-induced failures); a second crash is deterministic, so
   roll back again and sit the epoch out.  Returns the number of
   failures absorbed (0–2). *)
let recover ~label isl snap outcome ~period =
  match outcome with
  | None -> 0
  | Some msg ->
    Obs.Metrics.incr m_island_failures;
    Log.warn (fun m ->
        m "%s (%s) crashed during epoch: %s; retrying sequentially" label (Island.name isl)
          msg);
    Island.restore isl snap;
    (match try_step isl period with
    | None -> 1
    | Some msg ->
      Obs.Metrics.incr m_island_failures;
      Log.err (fun m ->
          m "%s (%s) crashed again: %s; skipping this epoch" label (Island.name isl) msg);
      Island.restore isl snap;
      2)

let supervised_step ?(label = "island") isl ~period =
  let snap = Island.snapshot isl in
  recover ~label isl snap (try_step isl period) ~period

(* The in-process island phase: every island steps one period under
   the supervised policy, then the firing edges deliver, in edge order.
   Emigrants are selected only after every island stepped, so sources
   offer their post-step fronts.  Returns the crashes absorbed. *)
let step_islands st ~epoch:_ ~fire =
  let period = st.config.migration_period in
  (* Pre-epoch snapshots are the supervisor's recovery points: a crashed
     island is rolled back to exactly this state. *)
  let snaps = Array.map Island.snapshot st.islands in
  (* Between migrations the islands are independent — the paper's
     coarse-grained parallelism maps directly onto one pool task per
     island.  Results are identical to the sequential schedule because
     every island carries its own random stream and the pool submission
     is a barrier: every task settles before any exchange.  The pool's
     workers persist across epochs (and across [run] calls), so the
     per-epoch cost is a wakeup instead of a domain spawn/join per
     island.  Failures are caught inside each task so one crashing
     island can no longer kill the epoch. *)
  let outcomes =
    if st.config.parallel then
      Parallel.Pool.parallel_map (Parallel.Pool.get ()) ~n:(Array.length st.islands) (fun i ->
          try_step st.islands.(i) period)
    else Array.map (fun isl -> try_step isl period) st.islands
  in
  let absorbed = ref 0 in
  Array.iteri
    (fun i outcome ->
      absorbed :=
        !absorbed
        + recover ~label:(Printf.sprintf "island %d" i) st.islands.(i) snaps.(i) outcome
            ~period)
    outcomes;
  (* Emigrants are non-dominated members of the source island's first
     front. *)
  let deliveries =
    List.map (fun (src, dst) -> (dst, Island.emigrants st.islands.(src) st.config.migrants)) fire
  in
  List.iter (fun (dst, sols) -> Island.inject st.islands.(dst) sols) deliveries;
  !absorbed

(* One migration epoch, whoever runs the island phase.  Each directed
   edge fires with the configured probability, drawn up front from the
   dedicated migration stream (one Bernoulli per edge, in edge order):
   nothing else consumes that stream, so drawing before the islands step
   changes no bit, and a sharded phase can ship the fire list to its
   workers. *)
let run_epoch st phase =
  Obs.Span.with_span "arch.epoch" @@ fun () ->
  Obs.Metrics.incr m_epochs;
  let period = st.config.migration_period in
  let fire =
    List.filter (fun _ -> Numerics.Rng.bernoulli st.rng st.config.migration_prob) st.edges
  in
  st.failures <- st.failures + phase ~epoch:((st.gens / period) + 1) ~fire;
  st.gens <- st.gens + period;
  st.epoch_migrations <- List.length fire;
  Obs.Metrics.add m_migrations st.epoch_migrations;
  collect st

let step_epoch st = run_epoch st (step_islands st)

let islands_fronts st = Array.to_list (Array.map Island.front st.islands)

let island_names st = Array.to_list (Array.map Island.name st.islands)

let archive st = st.arch

let evaluations st =
  Array.fold_left (fun acc isl -> acc + Island.evaluations isl) 0 st.islands

let generations_done st = st.gens

let island_guard_stats st = Array.map Runtime.Guard.stats st.guards

let island_cache_stats st = Array.map Cache.Memo.stats st.memos

(* {1 Sharding support} *)

let islands st = st.islands

let set_island_guard_stats st updates =
  List.iter
    (fun (i, s) ->
      if i >= 0 && i < Array.length st.guards then Runtime.Guard.set_stats st.guards.(i) s)
    updates

(* {1 Per-epoch observation} *)

type epoch_record = {
  er_epoch : int;
  er_generations : int;
  er_evaluations : int array;
  er_archive_size : int;
  er_hv_ref : float array;
  er_hypervolume : float;
  er_migrations : int;
  er_failures : int;
  er_guards : Runtime.Guard.stats array;
}

(* Fix the hypervolume reference point on first use: the componentwise
   worst of the first observed front, pushed out by 10% of the span (so
   boundary points still contribute volume).  Derived only from
   seed-determined state, hence deterministic. *)
let fixed_hv_ref st front =
  match st.hv_ref with
  | Some r -> Some r
  | None -> (
    match front with
    | [] -> None
    | s0 :: _ ->
      let d = Array.length s0.Moo.Solution.f in
      let lo = Array.make d infinity and hi = Array.make d neg_infinity in
      List.iter
        (fun s ->
          Array.iteri
            (fun i v ->
              if v < lo.(i) then lo.(i) <- v;
              if v > hi.(i) then hi.(i) <- v)
            s.Moo.Solution.f)
        front;
      let r =
        Array.init d (fun i -> hi.(i) +. (0.1 *. Float.max (hi.(i) -. lo.(i)) 1e-6))
      in
      st.hv_ref <- Some r;
      Some r)

let epoch_record st =
  Obs.Span.with_span "arch.observe" @@ fun () ->
  let front = Moo.Dominance.non_dominated (Moo.Archive.to_list st.arch) in
  let hv_ref, hv =
    match fixed_hv_ref st front with
    | Some r -> (r, Moo.Hypervolume.of_solutions ~ref_point:r front)
    | None -> ([||], Float.nan)
  in
  {
    er_epoch = st.gens / st.config.migration_period;
    er_generations = st.gens;
    er_evaluations = Array.map Island.evaluations st.islands;
    er_archive_size = Moo.Archive.size st.arch;
    er_hv_ref = hv_ref;
    er_hypervolume = hv;
    er_migrations = st.epoch_migrations;
    er_failures = st.failures;
    er_guards = Array.map Runtime.Guard.stats st.guards;
  }

let publish_record r =
  Obs.Metrics.set_gauge g_epoch (float_of_int r.er_epoch);
  Obs.Metrics.set_gauge g_hypervolume r.er_hypervolume;
  Obs.Metrics.set_gauge g_archive_size (float_of_int r.er_archive_size);
  Obs.Metrics.set_gauge g_evaluations
    (float_of_int (Array.fold_left ( + ) 0 r.er_evaluations));
  (* Registration is idempotent, so looking the island gauges up each
     epoch is just a table hit. *)
  Array.iteri
    (fun i evals ->
      Obs.Metrics.set_gauge
        (Obs.Metrics.gauge (Printf.sprintf "arch.island%d.evaluations" i))
        (float_of_int evals))
    r.er_evaluations

let jsonl_observer oc r =
  publish_record r;
  Obs.Metrics.write_snapshot ~label:(Printf.sprintf "epoch %d" r.er_epoch) oc

(* {1 Checkpointing} *)

let checkpoint_magic =
  Runtime.Checkpoint.versioned_magic ~base:"robustpath-archipelago-checkpoint" ~version:3

type snapshot = {
  snap_problem : string;
  snap_period : int;
  snap_n_islands : int;
  snap_islands : Island.snapshot array;
  snap_rng : int64;
  snap_archive : Moo.Solution.t list;
  snap_gens : int;
  snap_failures : int;
  snap_guards : Runtime.Guard.stats array;
}

let load_snapshot path : snapshot = Runtime.Checkpoint.load ~magic:checkpoint_magic ~path

let snapshot st =
  {
    snap_problem = st.problem.Moo.Problem.name;
    snap_period = st.config.migration_period;
    snap_n_islands = Array.length st.islands;
    snap_islands = Array.map Island.snapshot st.islands;
    snap_rng = Numerics.Rng.state st.rng;
    snap_archive = Moo.Archive.to_list st.arch;
    snap_gens = st.gens;
    snap_failures = st.failures;
    snap_guards = Array.map Runtime.Guard.stats st.guards;
  }

let restore st snap =
  if snap.snap_period <> st.config.migration_period then
    invalid_arg
      (Printf.sprintf
         "Archipelago.restore: checkpoint was taken at migration period %d, config says %d"
         snap.snap_period st.config.migration_period);
  if snap.snap_n_islands <> Array.length st.islands then
    invalid_arg
      (Printf.sprintf "Archipelago.restore: snapshot has %d islands, state has %d"
         snap.snap_n_islands (Array.length st.islands));
  Array.iteri
    (fun i isl_snap ->
      if Island.snapshot_algo isl_snap <> Island.name st.islands.(i) then
        invalid_arg
          (Printf.sprintf "Archipelago.restore: island %d is %s but snapshot holds %s" i
             (Island.name st.islands.(i))
             (Island.snapshot_algo isl_snap));
      Island.restore st.islands.(i) isl_snap)
    snap.snap_islands;
  Numerics.Rng.set_state st.rng snap.snap_rng;
  Moo.Archive.restore st.arch snap.snap_archive;
  st.gens <- snap.snap_gens;
  st.failures <- snap.snap_failures;
  (* Guard counters resume with the run so telemetry spans interruptions;
     a snapshot taken without telemetry simply leaves fresh counters. *)
  Array.iteri
    (fun i g ->
      if i < Array.length snap.snap_guards then Runtime.Guard.set_stats g snap.snap_guards.(i))
    st.guards;
  (* The memo is a pure accelerator, never checkpointed: flush it so a
     restored run re-derives every value it replays.  Resumed fronts are
     bit-identical either way (hits replay values computed from
     bit-identical genotypes); flushing just makes the restored run's
     miss pattern — and thus its eviction order — independent of
     whatever happened before the rollback. *)
  Array.iter Cache.Memo.clear st.memos

let save st path = Runtime.Checkpoint.save ~magic:checkpoint_magic ~path (snapshot st)

let load ?seed problem config path =
  let snap = load_snapshot path in
  if snap.snap_problem <> problem.Moo.Problem.name then
    invalid_arg
      (Printf.sprintf "Archipelago.load: checkpoint is for problem %S, not %S"
         snap.snap_problem problem.Moo.Problem.name);
  let st = init ?seed problem config in
  restore st snap;
  st

type result = {
  front : Moo.Solution.t list;
  per_island : Moo.Solution.t list list;
  evaluations : int;
  failures : int;
  guard_stats : Runtime.Guard.stats array;
  cache_stats : Cache.Memo.stats array;
}

let run_with ~islands ?seed ?initial ?checkpoint ?(checkpoint_every = 1) ?keep_checkpoints
    ?resume ?observer ~generations problem config =
  if checkpoint_every < 1 then invalid_arg "Archipelago.run: checkpoint_every must be >= 1";
  (match keep_checkpoints with
  | Some k when k < 1 -> invalid_arg "Archipelago.run: keep_checkpoints must be >= 1"
  | _ -> ());
  let st =
    match resume with
    | Some path ->
      let st = load ?seed problem config path in
      Log.info (fun m ->
          m "resumed from %s at generation %d (%d evaluations so far)" path st.gens
            (evaluations st));
      st
    | None ->
      let st = init ?seed ?initial problem config in
      collect st;
      st
  in
  let phase = islands st in
  let save_epoch e =
    match keep_checkpoints, checkpoint with
    | None, Some path -> save st path
    | Some k, Some path ->
      (* Numbered history: the newest file is the resume point, older
         ones roll off so long runs don't fill the disk. *)
      save st (Runtime.Checkpoint.numbered path e);
      Runtime.Checkpoint.prune ~keep:k path
    | _, None -> ()
  in
  let epochs = (generations + config.migration_period - 1) / config.migration_period in
  let done_epochs = st.gens / config.migration_period in
  for e = done_epochs + 1 to epochs do
    run_epoch st phase;
    (* Epoch records cost a hypervolume computation, so build one only
       for an observer or an enabled metrics stream. *)
    if Option.is_some observer || Obs.Metrics.enabled () then begin
      let r = epoch_record st in
      publish_record r;
      match observer with Some f -> f r | None -> ()
    end;
    if e mod checkpoint_every = 0 || e = epochs then save_epoch e
  done;
  {
    front = Moo.Dominance.non_dominated (Moo.Archive.to_list st.arch);
    per_island = islands_fronts st;
    evaluations = evaluations st;
    failures = st.failures;
    guard_stats = island_guard_stats st;
    cache_stats = island_cache_stats st;
  }

let run = run_with ~islands:step_islands

(* {1 Checkpoint inspection} *)

type island_info = {
  info_algo : string;
  info_evaluations : int;
  info_generation : int;
}

type info = {
  info_problem : string;
  info_period : int;
  info_islands : island_info array;
  info_generations : int;
  info_archive_size : int;
  info_failures : int;
  info_guards : Runtime.Guard.stats array;
}

let inspect path =
  let snap = load_snapshot path in
  {
    info_problem = snap.snap_problem;
    info_period = snap.snap_period;
    info_islands =
      Array.map
        (fun s ->
          {
            info_algo = Island.snapshot_algo s;
            info_evaluations = Island.snapshot_evaluations s;
            info_generation = Island.snapshot_generation s;
          })
        snap.snap_islands;
    info_generations = snap.snap_gens;
    info_archive_size = List.length snap.snap_archive;
    info_failures = snap.snap_failures;
    info_guards = snap.snap_guards;
  }

let pp_info ppf i =
  Format.fprintf ppf "problem: %s@\n" i.info_problem;
  Format.fprintf ppf "generations done: %d (migration period %d)@\n" i.info_generations
    i.info_period;
  Format.fprintf ppf "archive: %d solutions; island crashes absorbed: %d@\n"
    i.info_archive_size i.info_failures;
  Array.iteri
    (fun k isl ->
      Format.fprintf ppf "island %d: %s, generation %d, %d evaluations" k isl.info_algo
        isl.info_generation isl.info_evaluations;
      if k < Array.length i.info_guards then
        Format.fprintf ppf " (guard: %a)" Runtime.Guard.pp_stats i.info_guards.(k);
      Format.fprintf ppf "@\n")
    i.info_islands
