(* Multi-process sharded archipelago supervisor.

   [Pmo2.Archipelago.run_with] runs the epoch loop — migration draws,
   bookkeeping, archive collection, observer, checkpoints — on the
   canonical state the supervisor holds; the supervisor supplies the
   island phase, farmed out to forked worker processes:

     Step:   each worker injects the last commit's deliveries it has not
             seen, steps its islands, returns snapshots + emigrants
     commit: restore snapshots into canonical islands (island order),
             then inject the epoch's deliveries there and keep them as
             [pending] for the next Step

   Worker replies are buffered and committed only when the whole Step
   phase succeeded, so at any failure point the canonical islands still
   hold the epoch-start state: a respawned worker (a fresh fork of the
   supervisor) replays the identical Step and produces a bit-identical
   reply.  That is the whole determinism argument — crashes change which
   process computes an epoch, never what it computes.

   The one thing a fork can miss is the last commit's injection: the
   canonical islands got it at commit time, a worker's copies only with
   its next Step.  [w_synced] records which side of the last commit a
   worker was forked on — a worker forked after it (any spawn or
   respawn) inherited the deliveries and must not get them again.

   Supervision policy per shard: a worker must reply within
   [epoch_deadline] of being sent its Step, enforced with SIGKILL (hard
   preemption — covers wedged workers that cooperative deadlines cannot
   interrupt).  Every dead worker — Step undeliverable, reply torn or
   missing, or deadline passed — takes the same path: supervised restart
   with exponential backoff under a retry budget; on budget exhaustion
   the shard is lost, remaining workers are drained, and the run
   degrades to a smaller partition (ultimately to in-process stepping)
   without losing determinism. *)

module A = Pmo2.Archipelago

let log_src = Logs.Src.create "shard.supervisor" ~doc:"Sharded archipelago supervisor"

module Log = (val Logs.src_log log_src)

let m_spawns = Obs.Metrics.counter "shard.spawns"
let m_restarts = Obs.Metrics.counter "shard.restarts"
let m_kills = Obs.Metrics.counter "shard.kills"
let m_lost = Obs.Metrics.counter "shard.lost"
let h_restart_ms = Obs.Metrics.histogram "shard.restart_ms"
let h_backoff_ms = Obs.Metrics.histogram "shard.backoff_ms"
let g_shards = Obs.Metrics.gauge "shard.active"

let rp_kill = Obs.Ring.probe "supervisor.kill"
let rp_respawn = Obs.Ring.probe "supervisor.respawn"
let rp_epoch = Obs.Ring.probe "supervisor.epoch"

type config = {
  shards : int;
  retry_budget : int;
  epoch_deadline : float;
  backoff_base : float;
  backoff_cap : float;
  fault : Runtime.Fault.process_fault option;
  ring_prefix : string option;
  tick : (unit -> unit) option;
}

let default =
  {
    shards = 2;
    retry_budget = 2;
    epoch_deadline = 120.;
    backoff_base = 0.02;
    backoff_cap = 0.5;
    fault = None;
    ring_prefix = None;
    tick = None;
  }

let validate cfg =
  if cfg.shards < 1 then invalid_arg "Supervisor: shards must be >= 1";
  if cfg.retry_budget < 0 then invalid_arg "Supervisor: retry_budget must be >= 0";
  if not (cfg.epoch_deadline > 0.) then invalid_arg "Supervisor: epoch_deadline must be > 0";
  if not (cfg.backoff_base >= 0. && cfg.backoff_cap >= 0.) then
    invalid_arg "Supervisor: backoff must be >= 0"

type stats = {
  shards_requested : int;
  shards_used : int;
  spawns : int;
  restarts : int;
  kills : int;
  lost : int;
  backoff_ms : float;
  restart_ms : float list;
}

type worker = {
  w_shard : int;
  w_islands : int list;
  mutable w_pid : int;
  mutable w_to : Unix.file_descr;
  mutable w_from : Unix.file_descr;
  mutable w_incarnation : int;
  mutable w_restarts : int;
  mutable w_deadline : float; (* reply due by; armed when its Step is sent *)
  mutable w_alive : bool;
  mutable w_synced : bool; (* forked after the last commit: has its deliveries *)
  mutable w_key : int; (* metric contribution key, fresh per spawn *)
}

type ctx = {
  scfg : config;
  st : A.state;
  period : int;
  mutable workers : worker array; (* [||] = fully degraded, step in-process *)
  mutable pending : (int * Moo.Solution.t list) list; (* the last commit's deliveries *)
  latest_cache : Cache.Memo.stats option array; (* per island, worker-reported *)
  mutable spawn_seq : int; (* next metric contribution key *)
  lane_base : int array; (* per-shard span-id watermark (next safe id) *)
  mutable c_spawns : int;
  mutable c_restarts : int;
  mutable c_kills : int;
  mutable c_lost : int;
  mutable c_backoff_ms : float;
  mutable c_restart_ms : float list; (* reverse order *)
}

(* Fork-inheritance makes a domain pool in the child undefined behaviour;
   shard workers run their islands sequentially regardless of what the
   caller's config asked for. *)
let sanitize (cfg : A.config) =
  {
    cfg with
    A.parallel = false;
    nsga2 = { cfg.A.nsga2 with Ea.Nsga2.pool = None };
    algorithms =
      List.map
        (function A.Nsga2 c -> A.Nsga2 { c with Ea.Nsga2.pool = None } | a -> a)
        cfg.A.algorithms;
  }

(* Balanced contiguous partition of [0..n_islands) into [shards] blocks. *)
let partition ~n_islands ~shards =
  let q = n_islands / shards and r = n_islands mod shards in
  List.init shards (fun s ->
      let start = (s * q) + min s r in
      let len = q + if s < r then 1 else 0 in
      List.init len (fun j -> start + j))

(* {1 Process lifecycle} *)

let spawn_raw ctx ~shard ~islands_idx ~incarnation =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  (* Every live pipe end the child would otherwise inherit: holding a
     sibling's write end open would mask that sibling's death (no EOF). *)
  let inherited =
    Array.to_list ctx.workers
    |> List.concat_map (fun w -> if w.w_alive then [ w.w_to; w.w_from ] else [])
  in
  match Unix.fork () with
  | 0 ->
    (try
       Unix.close req_w;
       Unix.close rep_r;
       List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) inherited;
       Worker.run ~state:ctx.st ~shard ~incarnation ~local:islands_idx ~fault:ctx.scfg.fault ~span_base:ctx.lane_base.(shard)
         ~ring_prefix:ctx.scfg.ring_prefix ~input:req_r ~output:rep_w;
       Unix._exit 0
     (* robustlint: allow R4 — a forked child must die here, never resume the supervisor's stack *)
     with _ -> Unix._exit 3)
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    ctx.c_spawns <- ctx.c_spawns + 1;
    Obs.Metrics.incr m_spawns;
    Log.info (fun m ->
        m "spawned shard %d (pid %d, incarnation %d, islands [%s])" shard pid incarnation
          (String.concat ";" (List.map string_of_int islands_idx)));
    (pid, req_w, rep_r)

(* Reaping a worker closes our pipe ends first (so a live worker sees
   EOF and leaves), then collects the exit status, escalating to SIGKILL
   if the worker outlives the grace period.  Never leaves a zombie
   behind. *)
let close_pipes w =
  w.w_alive <- false;
  (try Unix.close w.w_to with Unix.Unix_error _ -> ());
  (try Unix.close w.w_from with Unix.Unix_error _ -> ())

(* A worker that saw EOF exits within a millisecond or so, so the poll
   starts at 0.1 ms and doubles up to 5 ms; past a 2 s grace the worker
   is killed. *)
let await w =
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec wait pause =
    match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
    | 0, _ ->
      if Unix.gettimeofday () < deadline then begin
        Unix.sleepf pause;
        wait (Float.min 0.005 (2. *. pause))
      end
      else begin
        (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] w.w_pid)
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 0.0001

let reap w =
  close_pipes w;
  await w

let preempt ctx w ~reason =
  ctx.c_kills <- ctx.c_kills + 1;
  Obs.Metrics.incr m_kills;
  Obs.Ring.record rp_kill Obs.Ring.Mark w.w_shard;
  Log.warn (fun m -> m "shard %d (pid %d): hard preemption (%s)" w.w_shard w.w_pid reason);
  (match ctx.scfg.ring_prefix with
  | Some prefix ->
    Log.warn (fun m ->
        m "shard %d: flight recorder at %s" w.w_shard
          (Worker.ring_path ~prefix ~shard:w.w_shard ~incarnation:w.w_incarnation))
  | None -> ());
  (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap w

(* Absorb a worker's observability flush: ingest its spans, replace its
   metric contribution, and advance the lane's span-id watermark so the
   next spawn of this shard starts past every id already merged. *)
let absorb_obs ctx w = function
  | None -> ()
  | Some f ->
    Obs.Merge.absorb ~key:w.w_key f;
    let next = Obs.Merge.max_span_id f + 1 in
    if next > ctx.lane_base.(w.w_shard) then ctx.lane_base.(w.w_shard) <- next

let fresh_key ctx =
  let k = ctx.spawn_seq in
  ctx.spawn_seq <- k + 1;
  k

(* Fork one worker per block, appending each to [ctx.workers] as it is
   born so the next child closes its earlier siblings' pipe ends. *)
let spawn_partition ctx ~shards =
  let n_islands = Array.length (A.islands ctx.st) in
  List.iteri
    (fun s islands_idx ->
      let pid, w_to, w_from = spawn_raw ctx ~shard:s ~islands_idx ~incarnation:0 in
      let w =
        {
          w_shard = s;
          w_islands = islands_idx;
          w_pid = pid;
          w_to;
          w_from;
          w_incarnation = 0;
          w_restarts = 0;
          w_deadline = infinity;
          w_alive = true;
          w_synced = true;
          w_key = fresh_key ctx;
        }
      in
      ctx.workers <- Array.append ctx.workers [| w |])
    (partition ~n_islands ~shards);
  Obs.Metrics.set_gauge g_shards (float_of_int (Array.length ctx.workers))

(* Close every live worker's pipes before waiting on any, so all of
   them leave at once. *)
let reap_all ctx =
  let live = List.filter (fun w -> w.w_alive) (Array.to_list ctx.workers) in
  List.iter close_pipes live;
  List.iter await live;
  ctx.workers <- [||]

(* Exponential backoff, then respawn the shard in place (next
   incarnation, same island block).  The fresh fork inherits the
   canonical islands, which hold exactly the state the dead incarnation
   reached after its deliveries — so it gets none. *)
let respawn ctx w =
  let t0 = Unix.gettimeofday () in
  ctx.c_restarts <- ctx.c_restarts + 1;
  Obs.Metrics.incr m_restarts;
  Obs.Ring.record rp_respawn Obs.Ring.Mark w.w_shard;
  let backoff =
    Float.min ctx.scfg.backoff_cap (ctx.scfg.backoff_base *. (2. ** float_of_int w.w_restarts))
  in
  if backoff > 0. then Unix.sleepf backoff;
  ctx.c_backoff_ms <- ctx.c_backoff_ms +. (backoff *. 1000.);
  Obs.Metrics.observe h_backoff_ms (backoff *. 1000.);
  w.w_restarts <- w.w_restarts + 1;
  w.w_incarnation <- w.w_incarnation + 1;
  let pid, w_to, w_from =
    spawn_raw ctx ~shard:w.w_shard ~islands_idx:w.w_islands ~incarnation:w.w_incarnation
  in
  w.w_pid <- pid;
  w.w_to <- w_to;
  w.w_from <- w_from;
  w.w_alive <- true;
  w.w_synced <- true;
  w.w_key <- fresh_key ctx;
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  ctx.c_restart_ms <- ms :: ctx.c_restart_ms;
  Obs.Metrics.observe h_restart_ms ms

(* Permanent loss of [w]'s shard: drain every worker and re-partition
   the islands over one fewer shard (the canonical state is the single
   source of truth, so fresh forks of it are always consistent). *)
let degrade ctx w =
  ctx.c_lost <- ctx.c_lost + 1;
  Obs.Metrics.incr m_lost;
  let survivors = Array.length ctx.workers - 1 in
  Log.err (fun m ->
      m "shard %d lost after %d restarts; degrading to %d shard(s)" w.w_shard w.w_restarts
        survivors);
  reap_all ctx;
  if survivors > 0 then spawn_partition ctx ~shards:survivors
  else Obs.Metrics.set_gauge g_shards 0.

(* {1 The island phase} *)

(* Send [w] its Step — the last commit's deliveries unless it was forked
   after that commit and so inherited them — and arm its deadline. *)
let send_step ctx w ~epoch ~fire =
  w.w_deadline <- Unix.gettimeofday () +. ctx.scfg.epoch_deadline;
  let deliveries = if w.w_synced then [] else ctx.pending in
  Wire.send_step w.w_to { Wire.epoch; period = ctx.period; fire; deliveries }

(* Send every worker its Step and wait for one reply each.  A worker
   that cannot take its Step, dies, tears its reply or misses its
   deadline is reaped and, while its retry budget lasts, respawned and
   re-sent its Step under a fresh deadline; past the budget the whole
   partition is rebuilt and [None] tells the caller to replay the
   phase. *)
let collect_phase ctx ~epoch ~fire =
  let n = Array.length ctx.workers in
  let replies = Array.make n None in
  let rec send i =
    match send_step ctx ctx.workers.(i) ~epoch ~fire with
    | () -> true
    | exception Wire.Closed ->
      reap ctx.workers.(i);
      fail i ~reason:"step not delivered"
  and fail i ~reason =
    let w = ctx.workers.(i) in
    if w.w_restarts < ctx.scfg.retry_budget then begin
      Log.warn (fun m ->
          m "shard %d failed during step of epoch %d (%s); restarting" w.w_shard epoch reason);
      respawn ctx w;
      send i
    end
    else begin
      degrade ctx w;
      false
    end
  in
  let rec pump () =
    let waiting = List.filter (fun i -> Option.is_none replies.(i)) (List.init n Fun.id) in
    if waiting = [] then Some (Array.map Option.get replies)
    else begin
      let now = Unix.gettimeofday () in
      let deadline_of i = ctx.workers.(i).w_deadline in
      (* First preempt anyone already past their deadline. *)
      let expired = List.filter (fun i -> now >= deadline_of i) waiting in
      match expired with
      | i :: _ ->
        preempt ctx ctx.workers.(i) ~reason:"no reply within the deadline";
        if fail i ~reason:"deadline" then pump () else None
      | [] -> (
        (* The periodic tick (e.g. --metrics-interval flushing) must run
           even while we sit in select waiting on workers: cap the wait
           and call it every pass. *)
        (match ctx.scfg.tick with Some f -> f () | None -> ());
        let wake = List.fold_left (fun acc i -> Float.min acc (deadline_of i)) infinity waiting in
        let timeout = Float.max 0. (wake -. now) in
        let timeout =
          match ctx.scfg.tick with Some _ -> Float.min timeout 0.25 | None -> timeout
        in
        let fds = List.map (fun i -> ctx.workers.(i).w_from) waiting in
        match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
        | [], _, _ -> pump () (* a deadline expired; handled on re-entry *)
        | readable, _, _ -> (
          let i =
            match List.find_opt (fun i -> List.memq ctx.workers.(i).w_from readable) waiting with
            | Some i -> i
            | None -> invalid_arg "Supervisor: select returned a foreign descriptor"
          in
          let w = ctx.workers.(i) in
          match Wire.recv_stepped ~deadline:(deadline_of i) w.w_from with
          | r when r.Wire.sd_epoch = epoch ->
            replies.(i) <- Some r;
            pump ()
          | r ->
            let reason =
              Printf.sprintf "stepped reply for epoch %d during epoch %d" r.Wire.sd_epoch epoch
            in
            preempt ctx w ~reason;
            if fail i ~reason then pump () else None
          | exception Wire.Timeout ->
            preempt ctx w ~reason:"stalled mid-frame during step";
            if fail i ~reason:"mid-frame stall" then pump () else None
          | exception (Wire.Closed | Runtime.Checkpoint.Corrupt _) ->
            reap w;
            if fail i ~reason:"died (closed/torn frame)" then pump () else None))
    end
  in
  if List.for_all send (List.init n Fun.id) then pump () else None

(* Commit a complete Step phase: restore every reply's snapshots into
   the canonical islands, inject the epoch's deliveries there (so
   checkpoints and later forks see the post-inject state), and keep them
   for the workers, whose copies still lack them.  Returns the crashes
   the workers absorbed. *)
let commit ctx ~fire replies =
  let islands = A.islands ctx.st in
  let failures = ref 0 in
  let emigrant_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun wi (r : Wire.stepped) ->
      List.iter (fun (i, snap) -> Pmo2.Island.restore islands.(i) snap) r.Wire.sd_snapshots;
      failures := !failures + r.Wire.sd_failures;
      A.set_island_guard_stats ctx.st r.Wire.sd_guards;
      List.iter
        (fun (i, cs) -> if i < Array.length ctx.latest_cache then ctx.latest_cache.(i) <- Some cs)
        r.Wire.sd_caches;
      List.iter (fun (edge, sols) -> Hashtbl.replace emigrant_tbl edge sols) r.Wire.sd_emigrants;
      (* Obs flushes are absorbed only here, at commit: flushes in
         discarded replies (repartitions, kills) never merge, so replayed
         epochs cannot double-count. *)
      absorb_obs ctx ctx.workers.(wi) r.Wire.sd_obs)
    replies;
  let deliveries =
    List.map
      (fun (src, dst) ->
        match Hashtbl.find_opt emigrant_tbl (src, dst) with
        | Some sols -> (dst, sols)
        | None ->
          invalid_arg (Printf.sprintf "Supervisor: no emigrants reported for edge %d->%d" src dst))
      fire
  in
  List.iter (fun (dst, sols) -> Pmo2.Island.inject islands.(dst) sols) deliveries;
  ctx.pending <- deliveries;
  Array.iter (fun w -> w.w_synced <- false) ctx.workers;
  !failures

(* One supervised island phase: Step and collect, replayed wholesale on
   repartition (safe because commits are buffered), then commit.  With
   no workers left the phase runs in-process on the already-drawn fire
   list. *)
let rec step_phase ctx ~epoch ~fire =
  if Array.length ctx.workers = 0 then A.step_islands ctx.st ~epoch ~fire
  else
    match collect_phase ctx ~epoch ~fire with
    | Some replies -> commit ctx ~fire replies
    | None -> step_phase ctx ~epoch ~fire

let island_phase ctx ~epoch ~fire =
  Obs.Ring.record rp_epoch Obs.Ring.Mark epoch;
  (match ctx.scfg.tick with Some f -> f () | None -> ());
  Obs.Span.with_span "shard.epoch" @@ fun () -> step_phase ctx ~epoch ~fire

(* {1 The run} *)

let stats_of ctx ~requested =
  {
    shards_requested = requested;
    shards_used = Array.length ctx.workers;
    spawns = ctx.c_spawns;
    restarts = ctx.c_restarts;
    kills = ctx.c_kills;
    lost = ctx.c_lost;
    backoff_ms = ctx.c_backoff_ms;
    restart_ms = List.rev ctx.c_restart_ms;
  }

(* Build the supervision context on the state [run_with] initialized or
   resumed, fork the workers, and hand back the island phase. *)
let start ~live config (acfg : A.config) st =
  let n_islands = Array.length (A.islands st) in
  (* More shards than islands would leave idle workers; clamp. *)
  let shards = max 1 (min config.shards n_islands) in
  let ctx =
    {
      scfg = config;
      st;
      period = acfg.A.migration_period;
      workers = [||];
      pending = [];
      latest_cache = Array.make n_islands None;
      spawn_seq = 0;
      lane_base = Array.make shards 0;
      c_spawns = 0;
      c_restarts = 0;
      c_kills = 0;
      c_lost = 0;
      c_backoff_ms = 0.;
      c_restart_ms = [];
    }
  in
  live := Some ctx;
  (* One Perfetto process row per logical lane: 0 = supervisor, s+1 =
     shard s.  Logical lanes, not OS pids — pids would break the
     byte-determinism of the merged trace. *)
  Obs.Span.set_process_label 0 "supervisor";
  for s = 0 to shards - 1 do
    Obs.Span.set_process_label (s + 1) (Printf.sprintf "shard %d" s)
  done;
  (match config.ring_prefix with
  | Some prefix -> Obs.Ring.attach ~path:(prefix ^ ".supervisor.ring") ~lane:0
  | None -> ());
  spawn_partition ctx ~shards;
  island_phase ctx

let run ?seed ?initial ?checkpoint ?checkpoint_every ?keep_checkpoints ?resume ?observer
    ?(config = default) ~generations problem (acfg : A.config) =
  validate config;
  let acfg = sanitize acfg in
  (* A write to a SIGKILLed worker must surface as EPIPE, not kill us. *)
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  let live = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter reap_all !live;
      match old_sigpipe with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
      | None -> ())
  @@ fun () ->
  let result =
    A.run_with ~islands:(start ~live config acfg) ?seed ?initial ?checkpoint ?checkpoint_every
      ?keep_checkpoints ?resume ?observer ~generations problem acfg
  in
  (* [run_with] calls [start] before its first epoch, so the context
     exists; stats are taken before the drain so they report the
     partition the run finished with. *)
  let ctx = Option.get !live in
  (* Memo counters live where the islands stepped: an island's last
     worker-reported counters replace the canonical memo's. *)
  let cache_stats =
    Array.mapi
      (fun i own -> Option.value ctx.latest_cache.(i) ~default:own)
      result.A.cache_stats
  in
  ({ result with A.cache_stats }, stats_of ctx ~requested:config.shards)
