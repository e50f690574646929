(* The body of a forked shard worker.

   A worker is born by [Unix.fork] from the supervisor, so it inherits a
   full copy of the canonical archipelago state — islands, RNG streams,
   guards, memos, the problem's closures — and needs nothing shipped to
   it.  It owns the islands in [local] and must never touch the others
   (its copies of those go stale the moment siblings step them).

   Determinism contract: the worker first injects the deliveries its
   [Step] carries (the previous commit's, which a worker forked before
   that commit has not seen), then steps its islands in island order
   with the same supervised policy as the in-process driver, and selects
   emigrants only for firing edges, in global edge order — the only two
   points where island RNG streams advance.

   Observability: the worker also inherits the supervisor's trace/metric
   state, none of which is its own.  [run] starts by resetting both —
   spans restart at the supervisor-issued [span_base] watermark for this
   lane (keeping [(pid, id)] unique across incarnations), metrics at
   zero so the worker's delta is cumulative-since-fork — and every
   [Stepped] reply carries the resulting {!Obs.Merge.flush}.  The flight
   recorder is re-attached to a per-incarnation sidecar file so a
   SIGKILL leaves a post-mortem. *)

let log_src = Logs.Src.create "shard.worker" ~doc:"Sharded archipelago worker"

module Log = (val Logs.src_log log_src)

let rp_step = Obs.Ring.probe "worker.step"
let rp_fault = Obs.Ring.probe "worker.fault"

(* A wedged evaluation: the pipe stays open but no bytes ever arrive.
   Cooperative deadlines cannot interrupt this; only the supervisor's
   SIGKILL preemption clears it. *)
let rec wedge () =
  Unix.sleepf 0.05;
  wedge ()

let ring_path ~prefix ~shard ~incarnation =
  Printf.sprintf "%s.shard%d.inc%d.ring" prefix shard incarnation

let run ~state ~shard ~incarnation ~local ~fault ~span_base ~ring_prefix ~input
    ~output =
  let lane = shard + 1 in
  Obs.Span.on_fork ~next_id:span_base;
  Obs.Metrics.reset ();
  (match ring_prefix with
  | Some prefix -> Obs.Ring.attach ~path:(ring_path ~prefix ~shard ~incarnation) ~lane
  | None -> Obs.Ring.reset ());
  let islands = Pmo2.Archipelago.islands state in
  let pick stats =
    List.filter_map (fun i -> if i < Array.length stats then Some (i, stats.(i)) else None) local
  in
  let rec loop () =
    match Wire.recv_request input with
    | exception Wire.Closed -> ()
    | Wire.Shutdown -> ()
    | Wire.Step { epoch; period; fire; deliveries } ->
      let mode = Runtime.Fault.should_fault fault ~shard ~epoch ~incarnation in
      Obs.Ring.record rp_step Obs.Ring.Mark epoch;
      Wire.send_reply output (Wire.Heartbeat { hb_epoch = epoch; hb_island = -1 });
      let failures, emigrants =
        (* The whole local phase under one span, closed before the flush
           is captured so it ships inside this epoch's reply. *)
        Obs.Span.with_span ~args:[ ("epoch", string_of_int epoch) ] "worker.step" (fun () ->
            (* Deliveries arrive in global edge order; applying the local
               subset in that order preserves each island's injection
               order. *)
            List.iter
              (fun (dst, sols) ->
                if List.mem dst local then Pmo2.Island.inject islands.(dst) sols)
              deliveries;
            let failures = ref 0 in
            List.iter
              (fun i ->
                failures :=
                  !failures
                  + Pmo2.Archipelago.supervised_step
                      ~label:(Printf.sprintf "shard %d island %d" shard i)
                      islands.(i) ~period;
                Wire.send_reply output (Wire.Heartbeat { hb_epoch = epoch; hb_island = i }))
              local;
            (* Emigrants strictly after every local island stepped, and
               only for firing edges in global edge order — the
               in-process schedule. *)
            let emigrants =
              List.filter_map
                (fun (src, dst) ->
                  if List.mem src local then
                    Some ((src, dst), Pmo2.Island.emigrants islands.(src) Pmo2.Archipelago.migrants)
                  else None)
                fire
            in
            (!failures, emigrants))
      in
      let reply =
        Wire.Stepped
          {
            sd_epoch = epoch;
            sd_snapshots = List.map (fun i -> (i, Pmo2.Island.snapshot islands.(i))) local;
            sd_emigrants = emigrants;
            sd_failures = failures;
            sd_guards = pick (Pmo2.Archipelago.island_guard_stats state);
            sd_caches = pick (Pmo2.Archipelago.island_cache_stats state);
            sd_obs = Obs.Merge.capture_if_enabled ~pid:lane ();
          }
      in
      (match mode with
      | Some Runtime.Fault.Wedge ->
        Log.warn (fun m -> m "shard %d incarnation %d: injected wedge at epoch %d" shard incarnation epoch);
        Obs.Ring.record rp_fault Obs.Ring.Mark epoch;
        wedge ()
      | Some Runtime.Fault.Kill ->
        (* Die mid-migration: leak a torn prefix of the real reply, then
           go down hard.  The supervisor must reject the corrupt frame
           and restart this shard from its epoch-start state. *)
        Log.warn (fun m -> m "shard %d incarnation %d: injected kill at epoch %d" shard incarnation epoch);
        Obs.Ring.record rp_fault Obs.Ring.Mark epoch;
        let b = Wire.to_bytes (reply : Wire.reply) in
        Wire.write_raw output (String.sub b 0 (String.length b / 2));
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        loop ()
      | None ->
        Wire.send_reply output reply;
        loop ())
  in
  (* A dead supervisor surfaces as Closed (EOF on requests) or EPIPE on
     replies; both mean this worker is orphaned and should just leave. *)
  try loop () with Wire.Closed -> ()
