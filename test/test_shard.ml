(* Tests for the multi-process sharded archipelago: wire-format framing
   (including frames torn at every byte boundary), supervised restarts
   after injected SIGKILLs and between-epoch deaths, the per-worker reply
   deadline (wedged workers preempted, slow islands left alone, respawns
   re-armed), retry budget exhaustion degrading the partition, teardown
   by closing the request pipes, and the headline determinism claim —
   fronts bit-for-bit identical to the in-process archipelago at any
   shard count, crashes or not. *)

module A = Pmo2.Archipelago
module Sup = Shard.Supervisor

let zdt1 n = Moo.Benchmarks.zdt1 ~n

(* Bit-for-bit front identity: decision vector, objectives and violation
   of every member, order-independent. *)
let key (s : Moo.Solution.t) =
  (Array.to_list s.Moo.Solution.x, Array.to_list s.Moo.Solution.f, s.Moo.Solution.v)

let front_key (r : A.result) = List.sort compare (List.map key r.A.front)

let island_keys (r : A.result) =
  List.map (fun front -> List.sort compare (List.map key front)) r.A.per_island

let with_temp_file f =
  let path = Filename.temp_file "robustpath" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* [f dir path] with [path] a checkpoint base name inside a fresh
   directory, removed afterwards with everything in it. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "robustpath" ".hist" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir (Filename.concat dir "run.ckpt"))

(* ZDT1 whose objective raises for a tenth of candidates, picked by a
   pure hash of the decision vector. *)
let faulty_zdt1 () =
  Testkit.Fault.wrap_problem
    { Testkit.Fault.default with Testkit.Fault.fraction = 0.1; modes = [ Testkit.Fault.Raise ] }
    (zdt1 6)

(* Four islands so 1/2/4-shard partitions are all non-trivial. *)
let quad_config =
  {
    A.default_config with
    A.n_islands = 4;
    migration_period = 5;
    nsga2 = { Ea.Nsga2.default_config with Ea.Nsga2.pop_size = 16 };
  }

(* Supervision tuned for tests: fast backoff, a CI-safe deadline. *)
let sup_config =
  { Sup.default with Sup.epoch_deadline = 30.; backoff_base = 0.002; backoff_cap = 0.02 }

(* {1 Versioned magic and frame codec} *)

let test_versioned_magic () =
  let base = "robustpath-test" in
  let m = Runtime.Checkpoint.versioned_magic ~base ~version:3 in
  Alcotest.(check string) "shape" "robustpath-test v3" m;
  Alcotest.(check string) "wire magic" "robustpath-shard-wire v4" Shard.Wire.magic;
  Alcotest.(check bool) "version < 1 refused" true
    (match Runtime.Checkpoint.versioned_magic ~base ~version:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_frame_roundtrip () =
  let magic = "frame-test v1" in
  let value = ([ 1; 2; 3 ], "payload", 3.14) in
  let frame = Runtime.Checkpoint.Frame.encode ~magic value in
  Alcotest.(check bool) "roundtrips" true
    (Runtime.Checkpoint.Frame.decode ~magic frame = value);
  Alcotest.(check int32) "CRC-32 known answer" 0xCBF43926l
    (Runtime.Checkpoint.Frame.crc32 "123456789");
  Alcotest.(check bool) "wrong magic rejected" true
    (match Runtime.Checkpoint.Frame.decode ~magic:"frame-test v2" frame with
    | exception Runtime.Checkpoint.Corrupt _ -> true
    | _ -> false);
  (* Flip one payload byte: the CRC must catch it. *)
  let tampered = Bytes.of_string frame in
  let last = Bytes.length tampered - 1 in
  Bytes.set tampered last (Char.chr (Char.code (Bytes.get tampered last) lxor 0x01));
  Alcotest.(check bool) "bit flip rejected" true
    (match Runtime.Checkpoint.Frame.decode ~magic (Bytes.to_string tampered) with
    | exception Runtime.Checkpoint.Corrupt _ -> true
    | _ -> false)

(* A worker SIGKILLed mid-write can tear the wire frame at any byte
   boundary; every prefix must read back as a clean close (nothing sent)
   or a detected corruption — never a misparse. *)
let sample_reply () =
  let migrant = Moo.Solution.evaluate (zdt1 6) (Array.make 6 0.25) in
  {
    Shard.Wire.sd_epoch = 7;
    sd_snapshots = [];
    sd_emigrants = [ ((0, 1), [ migrant ]) ];
    sd_failures = 0;
    sd_guards = [];
    sd_caches = [];
    sd_obs = None;
  }

let test_wire_torn_at_every_byte () =
  let reply = sample_reply () in
  let bytes = Shard.Wire.to_bytes reply in
  let n = String.length bytes in
  for cut = 0 to n - 1 do
    let r, w = Unix.pipe () in
    Shard.Wire.write_raw w (String.sub bytes 0 cut);
    Unix.close w;
    (match Shard.Wire.recv_stepped r with
    | _ -> Alcotest.failf "torn frame of %d/%d bytes decoded" cut n
    | exception Shard.Wire.Closed ->
      if cut <> 0 then Alcotest.failf "cut at %d read as clean close" cut
    | exception Runtime.Checkpoint.Corrupt _ ->
      if cut = 0 then Alcotest.failf "empty pipe read as corrupt");
    Unix.close r
  done;
  (* The untorn frame decodes to the original. *)
  let r, w = Unix.pipe () in
  Shard.Wire.write_raw w bytes;
  Unix.close w;
  Alcotest.(check bool) "full frame decodes" true (Shard.Wire.recv_stepped r = reply);
  Unix.close r

(* Every single-bit flip of a real frame's 4-byte length prefix, sent
   down a pipe the writer then closes, reads as [Corrupt]: a longer
   length finds the pipe closed, a shorter one cuts the inner frame.
   And none allocates a buffer the size of the corrupt length: flipping
   bit 29 claims a 512 MiB frame. *)
let test_wire_corrupt_length_prefix () =
  let bytes = Shard.Wire.to_bytes (sample_reply ()) in
  for bit = 0 to 31 do
    let b = Bytes.of_string bytes and at = 3 - (bit / 8) in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (bit mod 8))));
    let r, w = Unix.pipe () in
    Shard.Wire.write_raw w (Bytes.to_string b);
    Unix.close w;
    let before = Gc.allocated_bytes () in
    (match Shard.Wire.recv_stepped r with
    | _ -> Alcotest.failf "bit %d: a corrupt prefix decoded" bit
    | exception Runtime.Checkpoint.Corrupt _ -> ());
    let allocated = Gc.allocated_bytes () -. before in
    Unix.close r;
    if allocated >= 1e6 then Alcotest.failf "bit %d: recv allocated %.0f bytes" bit allocated
  done

(* {1 Process-fault specs} *)

let test_parse_kill_spec () =
  let pf = Runtime.Fault.parse_kill_spec "1:2" in
  Alcotest.(check int) "shard" 1 pf.Runtime.Fault.pf_shard;
  Alcotest.(check int) "epoch" 2 pf.Runtime.Fault.pf_epoch;
  Alcotest.(check int) "times defaults to 1" 1 pf.Runtime.Fault.pf_times;
  Alcotest.(check bool) "mode defaults to kill" true (pf.Runtime.Fault.pf_mode = Runtime.Fault.Kill);
  let pf = Runtime.Fault.parse_kill_spec "0:3:2:wedge" in
  Alcotest.(check int) "times" 2 pf.Runtime.Fault.pf_times;
  Alcotest.(check bool) "wedge mode" true (pf.Runtime.Fault.pf_mode = Runtime.Fault.Wedge);
  List.iter
    (fun spec ->
      Alcotest.(check bool) (spec ^ " refused") true
        (match Runtime.Fault.parse_kill_spec spec with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ ""; "1"; "1:abc"; "1:2:3:flood"; "-1:2"; "1:0"; "1:2:0" ]

let test_should_fault_incarnation_gate () =
  let pf = Runtime.Fault.parse_kill_spec "1:2:2" in
  let f ~shard ~epoch ~incarnation =
    Runtime.Fault.should_fault (Some pf) ~shard ~epoch ~incarnation
  in
  Alcotest.(check bool) "fires for incarnation 0" true
    (f ~shard:1 ~epoch:2 ~incarnation:0 = Some Runtime.Fault.Kill);
  Alcotest.(check bool) "fires for incarnation 1" true
    (f ~shard:1 ~epoch:2 ~incarnation:1 = Some Runtime.Fault.Kill);
  Alcotest.(check bool) "exhausted after pf_times" true (f ~shard:1 ~epoch:2 ~incarnation:2 = None);
  Alcotest.(check bool) "wrong shard" true (f ~shard:0 ~epoch:2 ~incarnation:0 = None);
  Alcotest.(check bool) "wrong epoch" true (f ~shard:1 ~epoch:1 ~incarnation:0 = None);
  Alcotest.(check bool) "no spec, no fault" true
    (Runtime.Fault.should_fault None ~shard:1 ~epoch:2 ~incarnation:0 = None)

(* {1 Front identity at any shard count} *)

let test_front_identity_1_2_4_shards () =
  let problem = zdt1 6 in
  let baseline = A.run ~seed:11 ~generations:20 problem quad_config in
  List.iter
    (fun shards ->
      let r, stats =
        Sup.run ~seed:11 ~config:{ sup_config with Sup.shards } ~generations:20 problem
          quad_config
      in
      let label = Printf.sprintf "%d shard(s)" shards in
      Alcotest.(check bool) (label ^ ": front bit-identical") true
        (front_key r = front_key baseline);
      Alcotest.(check bool) (label ^ ": island fronts identical") true
        (island_keys r = island_keys baseline);
      Alcotest.(check int) (label ^ ": evaluations exact") baseline.A.evaluations
        r.A.evaluations;
      Alcotest.(check int) (label ^ ": partition size") shards stats.Sup.shards_used;
      Alcotest.(check int) (label ^ ": no restarts") 0 stats.Sup.restarts)
    [ 1; 2; 4 ]

let test_shards_clamped_to_islands () =
  let problem = zdt1 6 in
  let baseline = A.run ~seed:13 ~generations:10 problem quad_config in
  let r, stats =
    Sup.run ~seed:13 ~config:{ sup_config with Sup.shards = 9 } ~generations:10 problem
      quad_config
  in
  Alcotest.(check int) "clamped to island count" 4 stats.Sup.shards_used;
  Alcotest.(check int) "one process per used shard" 4 stats.Sup.spawns;
  Alcotest.(check bool) "front bit-identical" true (front_key r = front_key baseline)

(* {1 Supervised restart after an injected SIGKILL} *)

let test_kill_mid_migration_supervised_restart () =
  let problem = zdt1 6 in
  let baseline = A.run ~seed:17 ~generations:20 problem quad_config in
  (* Shard 1 SIGKILLs itself at epoch 2, tearing its Stepped frame on
     the pipe; the supervisor must restart it and replay the epoch. *)
  let fault = Runtime.Fault.parse_kill_spec "1:2:1:kill" in
  let r, stats =
    Sup.run ~seed:17
      ~config:{ sup_config with Sup.shards = 2; fault = Some fault }
      ~generations:20 problem quad_config
  in
  Alcotest.(check bool) "restarted at least once" true (stats.Sup.restarts >= 1);
  Alcotest.(check int) "no shard lost" 0 stats.Sup.lost;
  Alcotest.(check int) "still two shards" 2 stats.Sup.shards_used;
  Alcotest.(check bool) "restart latency recorded" true
    (List.length stats.Sup.restart_ms = stats.Sup.restarts);
  Alcotest.(check bool) "front bit-identical across the crash" true
    (front_key r = front_key baseline);
  Alcotest.(check int) "evaluations exact across the crash" baseline.A.evaluations
    r.A.evaluations

let test_wedged_worker_hard_preempted () =
  let problem = zdt1 6 in
  let baseline = A.run ~seed:19 ~generations:15 problem quad_config in
  (* Shard 0 wedges at epoch 1: pipe open, no reply.  Cooperative
     deadlines cannot clear this; the supervisor's reply deadline must
     SIGKILL it. *)
  let fault = Runtime.Fault.parse_kill_spec "0:1:1:wedge" in
  let r, stats =
    Sup.run ~seed:19
      ~config:{ sup_config with Sup.shards = 2; epoch_deadline = 0.4; fault = Some fault }
      ~generations:15 problem quad_config
  in
  Alcotest.(check bool) "hard preemption fired" true (stats.Sup.kills >= 1);
  Alcotest.(check bool) "restarted" true (stats.Sup.restarts >= 1);
  Alcotest.(check bool) "front bit-identical after preemption" true
    (front_key r = front_key baseline)

let test_retry_budget_exhaustion_degrades () =
  let problem = zdt1 6 in
  let baseline = A.run ~seed:23 ~generations:15 problem quad_config in
  (* Shard 0 dies at epoch 1 in every incarnation; with a budget of one
     restart per shard the partition degrades 2 -> 1 -> in-process. *)
  let fault = Runtime.Fault.parse_kill_spec "0:1:99:kill" in
  let r, stats =
    Sup.run ~seed:23
      ~config:{ sup_config with Sup.shards = 2; retry_budget = 1; fault = Some fault }
      ~generations:15 problem quad_config
  in
  Alcotest.(check bool) "shards were lost" true (stats.Sup.lost >= 1);
  Alcotest.(check int) "fully degraded to in-process" 0 stats.Sup.shards_used;
  Alcotest.(check bool) "front bit-identical after degradation" true
    (front_key r = front_key baseline);
  Alcotest.(check int) "evaluations exact after degradation" baseline.A.evaluations
    r.A.evaluations

(* A worker is judged only by its reply deadline, so an island phase may
   compute for as long as that allows: two islands whose evaluations
   take 10 ms in the workers (about 0.8 s a step, twice the deadline the
   wedge cases use) run under a 5 s deadline with no preemption.  The
   supervisor's own initial evaluations are not slowed, which keeps the
   case short. *)
let test_slow_island_not_preempted () =
  let pair_config = { quad_config with A.n_islands = 2 } in
  let baseline = A.run ~seed:61 ~generations:5 (zdt1 6) pair_config in
  let p = zdt1 6 and self = Unix.getpid () in
  let slow =
    {
      p with
      Moo.Problem.eval =
        (fun x ->
          if Unix.getpid () <> self then Unix.sleepf 0.01;
          p.Moo.Problem.eval x);
    }
  in
  let t0 = Unix.gettimeofday () in
  let r, stats =
    Sup.run ~seed:61
      ~config:{ sup_config with Sup.shards = 2; epoch_deadline = 5. }
      ~generations:5 slow pair_config
  in
  if Unix.gettimeofday () -. t0 < 0.5 then Alcotest.fail "the island step was not slow";
  Alcotest.(check int) "no preemption" 0 stats.Sup.kills;
  Alcotest.(check int) "no restart" 0 stats.Sup.restarts;
  Alcotest.(check int) "both shards used" 2 stats.Sup.shards_used;
  Alcotest.(check bool) "front bit-identical" true (front_key r = front_key baseline);
  Alcotest.(check int) "evaluations exact" baseline.A.evaluations r.A.evaluations

(* The deadline is armed when a Step is sent, so the worker respawned
   after a wedge gets a full one; a deadline fixed when the phase began
   would already have passed and kill every respawn in turn.  Shard 1
   wedges at epoch 2, after migrants were delivered: one kill, one
   restart, nothing lost. *)
let test_respawn_gets_full_deadline () =
  let problem = zdt1 6 in
  let baseline = A.run ~seed:67 ~generations:20 problem quad_config in
  let fault = Runtime.Fault.parse_kill_spec "1:2:1:wedge" in
  let r, stats =
    Sup.run ~seed:67
      ~config:{ sup_config with Sup.shards = 2; epoch_deadline = 0.4; fault = Some fault }
      ~generations:20 problem quad_config
  in
  Alcotest.(check int) "one kill" 1 stats.Sup.kills;
  Alcotest.(check int) "one restart" 1 stats.Sup.restarts;
  Alcotest.(check int) "no shard lost" 0 stats.Sup.lost;
  Alcotest.(check int) "still two shards" 2 stats.Sup.shards_used;
  Alcotest.(check bool) "front bit-identical" true (front_key r = front_key baseline);
  Alcotest.(check int) "evaluations exact" baseline.A.evaluations r.A.evaluations

(* A worker that dies between epochs fails its next Step's write and is
   respawned under its budget like any other dead worker: the problem
   records each evaluating process's pid, and the observer SIGKILLs and
   collects one worker after epoch 1, so the next write fails for sure.
   One restart, three spawns, and the sibling is left alone. *)
let test_worker_dead_between_epochs () =
  let baseline = A.run ~seed:37 ~generations:20 (zdt1 6) quad_config in
  with_temp_dir (fun dir _ ->
      let p = zdt1 6 in
      (* Per process after the fork: the last pid this copy recorded. *)
      let recorded = ref 0 in
      let problem =
        {
          p with
          Moo.Problem.eval =
            (fun x ->
              let pid = Unix.getpid () in
              if !recorded <> pid then begin
                recorded := pid;
                close_out (open_out (Filename.concat dir (string_of_int pid)))
              end;
              p.Moo.Problem.eval x);
        }
      in
      let self = Unix.getpid () in
      let observer (er : A.epoch_record) =
        if er.A.er_epoch = 1 then begin
          let workers =
            Sys.readdir dir |> Array.to_list |> List.map int_of_string
            |> List.filter (fun pid -> pid <> self)
            |> List.sort compare
          in
          Alcotest.(check int) "two workers evaluated epoch 1" 2 (List.length workers);
          let victim = List.hd workers in
          Unix.kill victim Sys.sigkill;
          ignore (Unix.waitpid [] victim)
        end
      in
      let r, stats =
        Sup.run ~seed:37 ~observer ~config:{ sup_config with Sup.shards = 2 } ~generations:20
          problem quad_config
      in
      Alcotest.(check int) "one restart" 1 stats.Sup.restarts;
      Alcotest.(check int) "three spawns" 3 stats.Sup.spawns;
      Alcotest.(check int) "no preemption" 0 stats.Sup.kills;
      Alcotest.(check int) "no shard lost" 0 stats.Sup.lost;
      Alcotest.(check bool) "front bit-identical" true (front_key r = front_key baseline);
      Alcotest.(check int) "evaluations exact" baseline.A.evaluations r.A.evaluations)

(* Without a shutdown message a worker leaves when its request pipe
   closes, which needs every later sibling to have closed its copy of
   that pipe: a clean run tears down well inside the 2 s reap grace that
   a worker kept alive by a sibling would wait out. *)
let test_teardown_on_eof () =
  let last_epoch = ref 0. in
  let _r, stats =
    Sup.run ~seed:59
      ~observer:(fun _ -> last_epoch := Unix.gettimeofday ())
      ~config:{ sup_config with Sup.shards = 2 }
      ~generations:10 (zdt1 6) quad_config
  in
  let teardown = Unix.gettimeofday () -. !last_epoch in
  Alcotest.(check int) "two spawns" 2 stats.Sup.spawns;
  if teardown >= 1.0 then Alcotest.failf "teardown took %.2f s" teardown

(* {1 Telemetry exactness across processes} *)

let test_guard_stats_exact_across_shards () =
  let cfg = { quad_config with A.guard_penalty = Some 1e9 } in
  let baseline = A.run ~seed:29 ~generations:15 (faulty_zdt1 ()) cfg in
  let r, _stats =
    Sup.run ~seed:29 ~config:{ sup_config with Sup.shards = 2 } ~generations:15
      (faulty_zdt1 ()) cfg
  in
  Alcotest.(check bool) "guards saw failures" true
    (Array.exists (fun g -> Runtime.Guard.failures g > 0) baseline.A.guard_stats);
  Alcotest.(check bool) "guard stats identical across processes" true
    (baseline.A.guard_stats = r.A.guard_stats);
  Alcotest.(check bool) "front bit-identical under guarded faults" true
    (front_key r = front_key baseline)

(* {1 Merged observability: one trace, exact roll-ups, flight recorder} *)

let with_obs f =
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.Span.set_enabled true;
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Metrics.set_enabled false;
      Obs.Span.reset ();
      Obs.Metrics.reset ())
    f

(* The current counters, minus the shard.* supervision family (which has
   no in-process counterpart by construction). *)
let counters_sans_shard () =
  match Obs.Json.member "counters" (Obs.Metrics.snapshot ()) with
  | Some (Obs.Json.Obj kvs) ->
    List.filter (fun (k, _) -> not (String.starts_with ~prefix:"shard." k)) kvs
  | _ -> []

let test_merged_rollups_and_trace () =
  let cfg = { quad_config with A.guard_penalty = Some 1e9 } in
  let baseline =
    with_obs (fun () ->
        let _ = A.run ~seed:41 ~generations:12 (faulty_zdt1 ()) cfg in
        counters_sans_shard ())
  in
  let sharded, events =
    with_obs (fun () ->
        (* A kill forces a replayed epoch: only committed flushes may be
           absorbed, or the replay double-counts. *)
        let fault = Runtime.Fault.parse_kill_spec "1:2:1:kill" in
        let _r, stats =
          Sup.run ~seed:41
            ~config:{ sup_config with Sup.shards = 2; fault = Some fault }
            ~generations:12 (faulty_zdt1 ()) cfg
        in
        Alcotest.(check bool) "kill replayed" true (stats.Sup.restarts >= 1);
        (counters_sans_shard (), Obs.Span.events ()))
  in
  Alcotest.(check bool) "baseline saw guarded work" true
    (List.exists (fun (k, v) -> k = "guard.evaluations" && v <> Obs.Json.Int 0) baseline);
  Alcotest.(check bool) "counters exact modulo shard.*, kill included" true
    (sharded = baseline);
  (* One Perfetto lane per process: supervisor plus both shards. *)
  let pids =
    List.sort_uniq compare (List.map (fun (e : Obs.Span.event) -> e.Obs.Span.pid) events)
  in
  Alcotest.(check (list int)) "one lane per process" [ 0; 1; 2 ] pids;
  List.iter
    (fun p ->
      let ids =
        List.filter_map
          (fun (e : Obs.Span.event) -> if e.Obs.Span.pid = p then Some e.Obs.Span.id else None)
          events
      in
      Alcotest.(check bool)
        (Printf.sprintf "lane %d span ids unique and ordered" p)
        true
        (List.sort_uniq compare ids = ids))
    pids;
  Alcotest.(check bool) "worker lanes carry worker.step spans" true
    (List.exists
       (fun (e : Obs.Span.event) -> e.Obs.Span.pid > 0 && e.Obs.Span.name = "worker.step")
       events)

let test_flight_recorder_survives_kill () =
  let problem = zdt1 6 in
  let prefix = Filename.temp_file "robustpath" ".flight" in
  let candidates =
    (prefix ^ ".supervisor.ring")
    :: List.concat_map
         (fun shard ->
           List.map
             (fun incarnation -> Shard.Worker.ring_path ~prefix ~shard ~incarnation)
             [ 0; 1; 2 ])
         [ 0; 1 ]
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.Ring.reset ();
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (prefix :: candidates))
    (fun () ->
      let fault = Runtime.Fault.parse_kill_spec "1:2:1:kill" in
      let _r, stats =
        Sup.run ~seed:43
          ~config:
            { sup_config with Sup.shards = 2; fault = Some fault; ring_prefix = Some prefix }
          ~generations:12 problem quad_config
      in
      Alcotest.(check bool) "restart happened" true (stats.Sup.restarts >= 1);
      (* The SIGKILLed incarnation (shard 1, incarnation 0) wrote its
         events through the mmap as they happened: the file on disk IS
         the post-mortem, no exit handler involved. *)
      let path = Shard.Worker.ring_path ~prefix ~shard:1 ~incarnation:0 in
      Alcotest.(check bool) "ring file recognized" true (Obs.Ring.is_ring_file ~path);
      let d = Obs.Ring.read ~path in
      Alcotest.(check int) "lane of shard 1" 2 d.Obs.Ring.d_lane;
      Alcotest.(check bool) "dying act on record: the injected fault" true
        (List.exists
           (fun e -> e.Obs.Ring.e_name = "worker.fault" && e.Obs.Ring.e_kind = Obs.Ring.Mark)
           d.Obs.Ring.d_entries);
      (* The supervisor's own ring logged the respawn. *)
      let sup = Obs.Ring.read ~path:(prefix ^ ".supervisor.ring") in
      Alcotest.(check int) "supervisor lane" 0 sup.Obs.Ring.d_lane;
      Alcotest.(check bool) "respawn recorded" true
        (List.exists
           (fun e -> e.Obs.Ring.e_name = "supervisor.respawn")
           sup.Obs.Ring.d_entries))

(* {1 Checkpoint interchange: sharded <-> in-process} *)

let test_checkpoint_interchange () =
  let problem = zdt1 6 in
  let full = A.run ~seed:31 ~generations:20 problem quad_config in
  with_temp_file (fun path ->
      (* Sharded half-run, in-process resume. *)
      let _half, _ =
        Sup.run ~seed:31 ~config:sup_config ~checkpoint:path ~generations:10 problem
          quad_config
      in
      let resumed = A.run ~seed:31 ~resume:path ~generations:20 problem quad_config in
      Alcotest.(check bool) "sharded checkpoint resumes in-process" true
        (front_key resumed = front_key full));
  with_temp_file (fun path ->
      (* In-process half-run, sharded resume. *)
      let _half = A.run ~seed:31 ~checkpoint:path ~generations:10 problem quad_config in
      let resumed, _ =
        Sup.run ~seed:31 ~config:sup_config ~resume:path ~generations:20 problem quad_config
      in
      Alcotest.(check bool) "in-process checkpoint resumes sharded" true
        (front_key resumed = front_key full))

(* {1 One epoch loop: observer stream and numbered checkpoints} *)

(* Every field of an epoch record; floats by their bits. *)
let record_key (r : A.epoch_record) =
  let bits = Array.map Int64.bits_of_float in
  ( (r.A.er_epoch, r.A.er_generations, r.A.er_evaluations, r.A.er_archive_size),
    (bits r.A.er_hv_ref, Int64.bits_of_float r.A.er_hypervolume),
    (r.A.er_migrations, r.A.er_failures, r.A.er_guards) )

let test_observer_stream_identical () =
  let cfg = { quad_config with A.guard_penalty = Some 1e9 } in
  let observe run =
    let records = ref [] in
    run ~observer:(fun r -> records := record_key r :: !records);
    List.rev !records
  in
  let baseline =
    observe (fun ~observer ->
        ignore (A.run ~seed:47 ~observer ~generations:20 (faulty_zdt1 ()) cfg))
  in
  (* Shard 1 dies mid-reply at epoch 2, so the stream must also survive
     a replayed epoch. *)
  let fault = Runtime.Fault.parse_kill_spec "1:2:1:kill" in
  let sharded =
    observe (fun ~observer ->
        let _r, stats =
          Sup.run ~seed:47 ~observer
            ~config:{ sup_config with Sup.shards = 2; fault = Some fault }
            ~generations:20 (faulty_zdt1 ()) cfg
        in
        Alcotest.(check bool) "kill replayed" true (stats.Sup.restarts >= 1))
  in
  Alcotest.(check int) "one record per epoch" 4 (List.length baseline);
  Alcotest.(check bool) "migrants delivered" true
    (List.exists (fun (_, _, (migrations, _, _)) -> migrations > 0) baseline);
  Alcotest.(check int) "same record count" (List.length baseline) (List.length sharded);
  List.iteri
    (fun i (b, s) ->
      Alcotest.(check bool) (Printf.sprintf "record %d identical" (i + 1)) true (b = s))
    (List.combine baseline sharded)

let history dir = List.sort compare (Array.to_list (Sys.readdir dir))

let test_numbered_history_matches () =
  let problem = zdt1 6 in
  let full = A.run ~seed:53 ~generations:30 problem quad_config in
  with_temp_dir (fun sdir spath ->
      with_temp_dir (fun adir apath ->
          let _r, _ =
            Sup.run ~seed:53 ~config:sup_config ~checkpoint:spath ~keep_checkpoints:2
              ~generations:20 problem quad_config
          in
          let _ =
            A.run ~seed:53 ~checkpoint:apath ~keep_checkpoints:2 ~generations:20 problem
              quad_config
          in
          Alcotest.(check (list string)) "two newest epochs kept"
            [ "run.ckpt.000003"; "run.ckpt.000004" ] (history adir);
          Alcotest.(check (list string)) "same numbered files" (history adir) (history sdir);
          let newest = Runtime.Checkpoint.numbered spath 4 in
          let resumed = A.run ~seed:53 ~resume:newest ~generations:30 problem quad_config in
          Alcotest.(check bool) "resumed front bit-identical" true
            (front_key resumed = front_key full);
          Alcotest.(check int) "resumed evaluations exact" full.A.evaluations
            resumed.A.evaluations))

let () =
  Alcotest.run "shard"
    [
      ( "wire",
        [
          Alcotest.test_case "versioned magic" `Quick test_versioned_magic;
          Alcotest.test_case "frame roundtrip + CRC" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn at every byte boundary" `Quick test_wire_torn_at_every_byte;
          Alcotest.test_case "corrupt length prefix" `Quick test_wire_corrupt_length_prefix;
        ] );
      ( "fault-spec",
        [
          Alcotest.test_case "parse kill spec" `Quick test_parse_kill_spec;
          Alcotest.test_case "incarnation gating" `Quick test_should_fault_incarnation_gate;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "1/2/4-shard front identity" `Quick
            test_front_identity_1_2_4_shards;
          Alcotest.test_case "shards clamped to islands" `Quick test_shards_clamped_to_islands;
          Alcotest.test_case "guard stats exact across shards" `Quick
            test_guard_stats_exact_across_shards;
          Alcotest.test_case "observer stream identical under a kill" `Quick
            test_observer_stream_identical;
        ] );
      ( "observability",
        [
          Alcotest.test_case "merged roll-ups and trace lanes" `Quick
            test_merged_rollups_and_trace;
          Alcotest.test_case "flight recorder survives SIGKILL" `Quick
            test_flight_recorder_survives_kill;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "kill mid-migration, supervised restart" `Quick
            test_kill_mid_migration_supervised_restart;
          Alcotest.test_case "wedged worker hard-preempted" `Quick
            test_wedged_worker_hard_preempted;
          Alcotest.test_case "retry budget exhaustion degrades" `Quick
            test_retry_budget_exhaustion_degrades;
          Alcotest.test_case "slow island is not preempted" `Quick
            test_slow_island_not_preempted;
          Alcotest.test_case "respawn gets a full deadline" `Quick
            test_respawn_gets_full_deadline;
          Alcotest.test_case "worker dead between epochs" `Quick
            test_worker_dead_between_epochs;
          Alcotest.test_case "teardown on EOF" `Quick test_teardown_on_eof;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "sharded <-> in-process interchange" `Quick
            test_checkpoint_interchange;
          Alcotest.test_case "numbered history matches in-process" `Quick
            test_numbered_history_matches;
        ] );
    ]
