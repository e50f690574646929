(* Tests for the fault-tolerance stack: ODE step underflow and the leaf
   relaxation that absorbs it, guarded objectives, deterministic fault
   injection, supervised islands, and checkpoint/resume. *)

(* {1 A stiff test problem}

   y' = lambda (cos t - y) with lambda = 1e6: the solution hugs cos t, but
   an explicit integrator is stability-limited to steps ~ 2/lambda, so a
   bounded step budget forces dopri5 into [Step_underflow]. *)

let lambda = 1e6

let stiff_f t y dy = dy.(0) <- lambda *. (cos t -. y.(0))

let test_dopri5_underflows_on_stiff () =
  Alcotest.check_raises "dopri5 exhausts its step budget"
    (Numerics.Ode.Step_underflow 0.)
    (fun () ->
      match
        Numerics.Ode.dopri5 ~max_steps:2000 ~f:stiff_f ~t0:0. ~t1:1. ~y0:[| 0. |] ()
      with
      | _ -> ()
      | exception Numerics.Ode.Step_underflow _ ->
        (* Normalize the payload: we only care that it underflowed. *)
        raise (Numerics.Ode.Step_underflow 0.))

let test_ode_steady_state_survives_stiffness () =
  (* The leaf relaxation reports instead of raising: an extreme design
     (ratios alternating 0.05 and 3.0) comes back as a report with a
     finite uptake. *)
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let ratios = Array.init Photo.Enzyme.count (fun i -> if i mod 2 = 0 then 0.05 else 3.0) in
  let r = Photo.Steady_state.evaluate ~env ~ratios () in
  Alcotest.(check bool) "finite uptake" true (Float.is_finite r.Photo.Steady_state.uptake)

(* {1 Guard} *)

let test_guard_penalizes_exceptions () =
  let g = Runtime.Guard.create ~penalty:1e9 () in
  let f x = if x.(0) > 0.5 then failwith "solver blew up" else [| x.(0); 1. |] in
  let wrapped = Runtime.Guard.wrap g ~n_obj:2 f in
  Alcotest.(check (array (float 0.))) "clean pass-through" [| 0.2; 1. |] (wrapped [| 0.2 |]);
  Alcotest.(check (array (float 0.))) "penalized" [| 1e9; 1e9 |] (wrapped [| 0.9 |]);
  let s = Runtime.Guard.stats g in
  Alcotest.(check int) "evaluations" 2 s.Runtime.Guard.evaluations;
  Alcotest.(check int) "exceptions" 1 s.Runtime.Guard.exceptions;
  Alcotest.(check int) "failures" 1 (Runtime.Guard.failures s)

let test_guard_sanitizes_non_finite () =
  let g = Runtime.Guard.create ~penalty:1e9 () in
  let wrapped = Runtime.Guard.wrap g ~n_obj:3 (fun _ -> [| nan; 2.; infinity |]) in
  Alcotest.(check (array (float 0.))) "NaN and inf replaced, finite kept" [| 1e9; 2.; 1e9 |]
    (wrapped [| 0. |]);
  let s = Runtime.Guard.stats g in
  Alcotest.(check int) "non-finite counted" 1 s.Runtime.Guard.non_finite

let test_guard_problem_wrapping () =
  let p =
    Moo.Problem.make ~name:"raising" ~n_obj:2 ~lower:[| 0. |] ~upper:[| 1. |]
      ~violation:(fun _ -> nan)
      (fun _ -> failwith "boom")
  in
  let g = Runtime.Guard.create () in
  let gp = Runtime.Guard.wrap_problem g p in
  let s = Moo.Solution.evaluate gp [| 0.5 |] in
  Alcotest.(check bool) "objectives finite" true (Array.for_all Float.is_finite s.Moo.Solution.f);
  Alcotest.(check bool) "violation finite" true (Float.is_finite s.Moo.Solution.v)

let test_guard_rejects_non_finite_penalty () =
  Alcotest.(check bool) "invalid penalty refused" true
    (match Runtime.Guard.create ~penalty:infinity () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* {1 Fault injection} *)

let test_fault_decide_is_pure () =
  let cfg = { Testkit.Fault.default with fraction = 0.5; seed = 3 } in
  let rng = Numerics.Rng.create 1 in
  for _ = 1 to 50 do
    let x = Array.init 4 (fun _ -> Numerics.Rng.float rng) in
    let a = Testkit.Fault.decide cfg x and b = Testkit.Fault.decide cfg x in
    Alcotest.(check bool) "same x, same decision" true (a = b)
  done

let test_fault_fraction_bounds () =
  let rng = Numerics.Rng.create 2 in
  let xs = Array.init 2000 (fun _ -> Array.init 3 (fun _ -> Numerics.Rng.float rng)) in
  let count frac =
    let cfg = { Testkit.Fault.default with fraction = frac } in
    Array.fold_left
      (fun acc x -> if Testkit.Fault.decide cfg x <> None then acc + 1 else acc)
      0 xs
  in
  Alcotest.(check int) "fraction 0 never fires" 0 (count 0.);
  Alcotest.(check int) "fraction 1 always fires" 2000 (count 1.);
  let hits = float_of_int (count 0.3) /. 2000. in
  Alcotest.(check bool)
    (Printf.sprintf "fraction 0.3 fires ~30%% (got %.3f)" hits)
    true
    (hits > 0.25 && hits < 0.35)

let test_fault_modes_behave () =
  let raise_cfg = { Testkit.Fault.default with fraction = 1.; modes = [ Testkit.Fault.Raise ] } in
  let nan_cfg = { raise_cfg with modes = [ Testkit.Fault.Nan ] } in
  let stall_cfg = { raise_cfg with modes = [ Testkit.Fault.Stall ]; stall_iters = 100 } in
  let f x = [| x.(0) |] in
  Alcotest.(check bool) "raise mode raises" true
    (match Testkit.Fault.wrap raise_cfg ~n_obj:1 f [| 0.5 |] with
    | exception Testkit.Fault.Injected -> true
    | _ -> false);
  Alcotest.(check bool) "nan mode poisons" true
    (Float.is_nan (Testkit.Fault.wrap nan_cfg ~n_obj:1 f [| 0.5 |]).(0));
  Alcotest.(check (array (float 0.))) "stall mode still answers" [| 0.5 |]
    (Testkit.Fault.wrap stall_cfg ~n_obj:1 f [| 0.5 |]);
  Alcotest.(check bool) "malformed fraction refused" true
    (match Testkit.Fault.decide { raise_cfg with fraction = 2. } [| 0. |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* {1 Archipelago under injected faults} *)

let small_config =
  {
    Pmo2.Archipelago.default_config with
    migration_period = 10;
    nsga2 = { Ea.Nsga2.default_config with pop_size = 20 };
  }

let faulty_zdt1 ~guard ~fraction ~seed =
  let cfg =
    {
      Testkit.Fault.fraction;
      seed;
      modes = [ Testkit.Fault.Raise; Testkit.Fault.Nan; Testkit.Fault.Stall ];
      stall_iters = 500;
    }
  in
  Runtime.Guard.wrap_problem guard (Testkit.Fault.wrap_problem cfg (Moo.Benchmarks.zdt1 ~n:8))

let objs r =
  List.sort compare
    (List.map (fun s -> Array.to_list s.Moo.Solution.f) r.Pmo2.Archipelago.front)

let test_run_completes_under_faults () =
  (* Acceptance criterion: 5% injected faults, run completes without
     raising, telemetry reports them, the front holds no NaN/inf. *)
  let guard = Runtime.Guard.create () in
  let problem = faulty_zdt1 ~guard ~fraction:0.05 ~seed:17 in
  let r = Pmo2.Archipelago.run ~seed:4 ~generations:30 problem small_config in
  let s = Runtime.Guard.stats guard in
  Alcotest.(check bool) "faults actually fired" true (Runtime.Guard.failures s > 0);
  Alcotest.(check bool) "front non-empty" true (r.Pmo2.Archipelago.front <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "front objectives finite" true
        (Array.for_all Float.is_finite s.Moo.Solution.f))
    r.Pmo2.Archipelago.front

let test_faulted_run_deterministic_parallel_and_sequential () =
  (* Same seed + same fault fraction must give the identical final front,
     parallel and sequential: injection is a pure hash of (seed, x), so it
     commutes with evaluation order. *)
  let run ~parallel =
    let guard = Runtime.Guard.create () in
    let problem = faulty_zdt1 ~guard ~fraction:0.05 ~seed:17 in
    Pmo2.Archipelago.run ~seed:4 ~generations:30 problem
      { small_config with Pmo2.Archipelago.parallel }
  in
  let a = run ~parallel:false and b = run ~parallel:false in
  Alcotest.(check bool) "sequential repeatable" true (objs a = objs b);
  let c = run ~parallel:true in
  Alcotest.(check bool) "parallel identical to sequential" true (objs a = objs c)

let test_supervisor_absorbs_island_crash () =
  (* Unguarded objective that starts throwing after the initial
     populations are built: every epoch crashes, the supervisor rolls the
     islands back, and the run still finishes with the initial fronts. *)
  let calls = ref 0 in
  let base = Moo.Benchmarks.zdt1 ~n:6 in
  let problem =
    {
      base with
      Moo.Problem.eval =
        (fun x ->
          incr calls;
          if !calls > 50 then failwith "flaky backend";
          base.Moo.Problem.eval x);
    }
  in
  let r = Pmo2.Archipelago.run ~seed:5 ~generations:20 problem small_config in
  Alcotest.(check bool) "crashes were absorbed" true (r.Pmo2.Archipelago.failures > 0);
  Alcotest.(check bool) "front survives" true (r.Pmo2.Archipelago.front <> [])

(* {1 Checkpoint / resume} *)

let with_temp_file f =
  let path = Filename.temp_file "robustpath" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_kill_and_resume_bit_for_bit () =
  let problem = Moo.Benchmarks.zdt1 ~n:8 in
  let full = Pmo2.Archipelago.run ~seed:21 ~generations:40 problem small_config in
  with_temp_file (fun path ->
      (* "Kill" after two of the four epochs: run half the generations with
         checkpointing on, then resume from disk for the full budget. *)
      let _half =
        Pmo2.Archipelago.run ~seed:21 ~checkpoint:path ~generations:20 problem
          small_config
      in
      let resumed =
        Pmo2.Archipelago.run ~seed:21 ~resume:path ~generations:40 problem small_config
      in
      Alcotest.(check bool) "identical fronts" true (objs full = objs resumed);
      Alcotest.(check int) "identical evaluation counts" full.Pmo2.Archipelago.evaluations
        resumed.Pmo2.Archipelago.evaluations;
      let hv r =
        Moo.Hypervolume.of_solutions ~ref_point:[| 1.1; 7. |] r.Pmo2.Archipelago.front
      in
      Alcotest.(check (float 0.)) "identical hypervolume" (hv full) (hv resumed))

let test_pooled_kill_and_resume () =
  (* The persistent-pool schedule (islands on the pool, populations on
     the pool) must leave checkpoint/resume untouched: the resumed run
     and the pooled run must match the sequential full run bit for bit,
     including the failures and guard telemetry.  Fault injection is a
     pure hash of (seed, x), so it commutes with the pool. *)
  Parallel.Pool.set_default_domains 2;
  let pool = Parallel.Pool.get () in
  let problem =
    Testkit.Fault.wrap_problem
      { Testkit.Fault.fraction = 0.05; seed = 17; modes = [ Testkit.Fault.Nan ]; stall_iters = 500 }
      (Moo.Benchmarks.zdt1 ~n:8)
  in
  let cfg ~pooled =
    {
      small_config with
      Pmo2.Archipelago.guard_penalty = Some 1e12;
      parallel = pooled;
      nsga2 =
        {
          Ea.Nsga2.default_config with
          pop_size = 20;
          pool = (if pooled then Some pool else None);
        };
    }
  in
  let sequential = Pmo2.Archipelago.run ~seed:21 ~generations:40 problem (cfg ~pooled:false) in
  let full = Pmo2.Archipelago.run ~seed:21 ~generations:40 problem (cfg ~pooled:true) in
  Alcotest.(check bool) "pooled front = sequential front" true (objs sequential = objs full);
  Alcotest.(check bool) "pooled guard telemetry = sequential" true
    (sequential.Pmo2.Archipelago.guard_stats = full.Pmo2.Archipelago.guard_stats);
  Alcotest.(check int) "pooled failures = sequential" sequential.Pmo2.Archipelago.failures
    full.Pmo2.Archipelago.failures;
  with_temp_file (fun path ->
      let _half =
        Pmo2.Archipelago.run ~seed:21 ~checkpoint:path ~generations:20 problem
          (cfg ~pooled:true)
      in
      let resumed =
        Pmo2.Archipelago.run ~seed:21 ~resume:path ~generations:40 problem (cfg ~pooled:true)
      in
      Alcotest.(check bool) "pooled resume identical fronts" true (objs full = objs resumed);
      Alcotest.(check int) "pooled resume identical evaluations"
        full.Pmo2.Archipelago.evaluations resumed.Pmo2.Archipelago.evaluations;
      Alcotest.(check bool) "pooled resume identical guard telemetry" true
        (full.Pmo2.Archipelago.guard_stats = resumed.Pmo2.Archipelago.guard_stats));
  Parallel.Pool.set_default_domains 1

let test_resume_spea2_and_mixed_islands () =
  let problem = Moo.Benchmarks.zdt1 ~n:6 in
  let cfg =
    {
      small_config with
      Pmo2.Archipelago.algorithms =
        [
          Pmo2.Archipelago.Nsga2 { Ea.Nsga2.default_config with pop_size = 20 };
          Pmo2.Archipelago.Spea2
            { Ea.Spea2.default_config with pop_size = 20; archive_size = 20 };
        ];
    }
  in
  let full = Pmo2.Archipelago.run ~seed:9 ~generations:30 problem cfg in
  with_temp_file (fun path ->
      let _ = Pmo2.Archipelago.run ~seed:9 ~checkpoint:path ~generations:10 problem cfg in
      let resumed = Pmo2.Archipelago.run ~seed:9 ~resume:path ~generations:30 problem cfg in
      Alcotest.(check bool) "mixed-island resume identical" true (objs full = objs resumed))

let test_checkpoint_validation () =
  let problem = Moo.Benchmarks.zdt1 ~n:6 in
  let resume ?(config = small_config) path problem =
    Pmo2.Archipelago.run ~seed:3 ~resume:path ~generations:10 problem config
  in
  with_temp_file (fun path ->
      let saved = Pmo2.Archipelago.run ~seed:3 ~checkpoint:path ~generations:10 problem small_config in
      (* Same file, different problem: refused. *)
      Alcotest.(check bool) "wrong problem refused" true
        (match resume path Testkit.Benchmarks.schaffer with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* Same file, different island layout: refused. *)
      Alcotest.(check bool) "wrong island count refused" true
        (match resume ~config:{ small_config with Pmo2.Archipelago.n_islands = 3 } path problem with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* A good resume restores both counters exactly: the 10 generations
         are already done, so it spends no further evaluation. *)
      Alcotest.(check int) "evaluation counter restored" saved.Pmo2.Archipelago.evaluations
        (resume path problem).Pmo2.Archipelago.evaluations)

let test_corrupt_checkpoint_detected () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not a checkpoint\n";
      close_out oc;
      Alcotest.(check bool) "bad magic detected" true
        (match
           Pmo2.Archipelago.run ~resume:path ~generations:10 (Moo.Benchmarks.zdt1 ~n:6)
             small_config
         with
        | exception Runtime.Checkpoint.Corrupt _ -> true
        | _ -> false))

(* {1 Numbered checkpoint histories / auto-pruning} *)

(* Like [with_temp_file], but also sweeps up any [path.NNNNNN] history
   files the test left behind. *)
let with_temp_history f =
  with_temp_file (fun path ->
      Fun.protect
        ~finally:(fun () ->
          let dir = Filename.dirname path and base = Filename.basename path in
          Array.iter
            (fun name ->
              if String.starts_with ~prefix:(base ^ ".") name then
                try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
            (try Sys.readdir dir with Sys_error _ -> [||]))
        (fun () -> f path))

let test_numbered_history_primitives () =
  Alcotest.(check string) "zero padding" "x.000042" (Runtime.Checkpoint.numbered "x" 42);
  Alcotest.(check bool) "negative seq refused" true
    (match Runtime.Checkpoint.numbered "x" (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  with_temp_history (fun path ->
      List.iter
        (fun i ->
          Runtime.Checkpoint.save ~magic:"history-test"
            ~path:(Runtime.Checkpoint.numbered path i)
            i)
        [ 1; 2; 3; 4 ];
      Runtime.Checkpoint.prune ~keep:2 path;
      List.iter
        (fun (i, expected) ->
          Alcotest.(check bool)
            (Printf.sprintf "file %d survival" i)
            expected
            (Sys.file_exists (Runtime.Checkpoint.numbered path i)))
        [ (1, false); (2, false); (3, true); (4, true) ];
      Alcotest.(check bool) "keep < 1 refused" true
        (match Runtime.Checkpoint.prune ~keep:0 path with
        | exception Invalid_argument _ -> true
        | _ -> false))

let test_keep_checkpoints_prunes_and_resumes () =
  let problem = Moo.Benchmarks.zdt1 ~n:8 in
  let full = Pmo2.Archipelago.run ~seed:21 ~generations:40 problem small_config in
  with_temp_history (fun path ->
      Sys.remove path;
      (* Half the run (2 of 4 epochs) with a 2-deep history: both epoch
         files survive, nothing is written to the bare path. *)
      let _half =
        Pmo2.Archipelago.run ~seed:21 ~checkpoint:path ~keep_checkpoints:2
          ~generations:20 problem small_config
      in
      Alcotest.(check bool) "bare path not written" false (Sys.file_exists path);
      Alcotest.(check bool) "epoch 1 kept" true
        (Sys.file_exists (Runtime.Checkpoint.numbered path 1));
      Alcotest.(check bool) "epoch 2 kept" true
        (Sys.file_exists (Runtime.Checkpoint.numbered path 2));
      (* Resume from the newest surviving file: bit-identical to the
         uninterrupted run. *)
      let newest = Runtime.Checkpoint.numbered path 2 in
      let resumed =
        Pmo2.Archipelago.run ~seed:21 ~resume:newest ~generations:40 problem small_config
      in
      Alcotest.(check bool) "resume from pruned history identical" true
        (objs full = objs resumed);
      (* A full run prunes as it goes: of 4 epoch files only the 2 newest
         survive. *)
      let _all =
        Pmo2.Archipelago.run ~seed:21 ~checkpoint:path ~keep_checkpoints:2
          ~generations:40 problem small_config
      in
      List.iter
        (fun (i, expected) ->
          Alcotest.(check bool)
            (Printf.sprintf "epoch %d file survival" i)
            expected
            (Sys.file_exists (Runtime.Checkpoint.numbered path i)))
        [ (1, false); (2, false); (3, true); (4, true) ])

(* {1 Corrupted checkpoint files} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let archipelago_magic = "robustpath-archipelago-checkpoint v3"

(* A real archipelago checkpoint: the frame a 2-epoch zdt1 run leaves. *)
let real_checkpoint () =
  with_temp_file (fun path ->
      ignore
        (Pmo2.Archipelago.run ~seed:21 ~checkpoint:path ~generations:20
           (Moo.Benchmarks.zdt1 ~n:8) small_config);
      read_file path)

let expect_refused what path =
  Alcotest.(check bool) (what ^ ": load refuses") true
    (match
       Pmo2.Archipelago.run ~resume:path ~generations:20 (Moo.Benchmarks.zdt1 ~n:8) small_config
     with
    | exception Runtime.Checkpoint.Corrupt _ -> true
    | _ -> false);
  Alcotest.(check bool) (what ^ ": inspect refuses") true
    (match Pmo2.Archipelago.inspect path with
    | exception Runtime.Checkpoint.Corrupt _ -> true
    | _ -> false)

let test_corrupted_checkpoint_refused () =
  let frame = real_checkpoint () in
  let n = String.length frame in
  (* magic line, then the u32 payload length and the u32 CRC *)
  let header = String.length archipelago_magic + 1 in
  Alcotest.(check bool) "file starts with the v3 magic line" true
    (String.starts_with ~prefix:(archipelago_magic ^ "\n") frame);
  with_temp_file (fun path ->
      write_file path frame;
      Alcotest.(check int) "intact file inspects" 20
        (Pmo2.Archipelago.inspect path).Pmo2.Archipelago.info_generations;
      (* One flipped byte in the magic line, in each header field and at
         spread payload offsets. *)
      let payload = List.init 6 (fun k -> header + 8 + (k * (n - header - 9) / 5)) in
      List.iter
        (fun pos ->
          let b = Bytes.of_string frame in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
          write_file path (Bytes.to_string b);
          expect_refused (Printf.sprintf "byte %d of %d flipped" pos n) path)
        ([ 0; header / 2; header - 1; header + 2; header + 5 ] @ payload);
      List.iter
        (fun len ->
          write_file path (String.sub frame 0 len);
          expect_refused (Printf.sprintf "truncated to %d of %d bytes" len n) path)
        [ 0; header + 3; n / 2; n - 1 ];
      (* The previous format: a v2 magic line over the bare Marshal
         payload of the same snapshot. *)
      write_file path
        ("robustpath-archipelago-checkpoint v2\n" ^ String.sub frame (header + 8) (n - header - 8));
      expect_refused "v2 file" path)

(* Fuzz the frame codec with a real checkpoint: 1 000 seeded mutations —
   1–8 bit flips (half of them in the magic line and header fields), a
   random u32 over the length field, or a truncation.  Each mutant must
   decode to the original value or raise [Corrupt]; nothing else. *)
let test_frame_fuzz () =
  let frame = real_checkpoint () in
  let n = String.length frame in
  let header = String.length archipelago_magic + 1 in
  let rng = Numerics.Rng.create 22 in
  let mutate () =
    match Numerics.Rng.int rng 3 with
    | 0 ->
      let b = Bytes.of_string frame in
      for _ = 1 to 1 + Numerics.Rng.int rng 8 do
        let pos =
          if Numerics.Rng.bool rng then Numerics.Rng.int rng (header + 8)
          else Numerics.Rng.int rng n
        in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Numerics.Rng.int rng 8)))
      done;
      Bytes.to_string b
    | 1 ->
      let b = Bytes.of_string frame in
      Bytes.set_int32_be b header (Int64.to_int32 (Numerics.Rng.bits64 rng));
      Bytes.to_string b
    | _ -> String.sub frame 0 (Numerics.Rng.int rng n)
  in
  let refused = ref 0 in
  for i = 1 to 1000 do
    let mutant = mutate () in
    match Runtime.Checkpoint.Frame.decode ~magic:archipelago_magic mutant with
    | v ->
      if Runtime.Checkpoint.Frame.encode ~magic:archipelago_magic v <> frame then
        Alcotest.failf "mutant %d decoded to a different value" i
    | exception Runtime.Checkpoint.Corrupt _ -> incr refused
    | exception e -> Alcotest.failf "mutant %d raised %s" i (Printexc.to_string e)
  done;
  Alcotest.(check bool) "most mutants refused" true (!refused > 900)

(* {1 Per-island guard telemetry} *)

let test_per_island_guard_telemetry () =
  let calls = ref 0 in
  let base = Moo.Benchmarks.zdt1 ~n:6 in
  let problem =
    {
      base with
      Moo.Problem.eval =
        (fun x ->
          incr calls;
          if !calls mod 7 = 0 then failwith "flaky backend";
          base.Moo.Problem.eval x);
    }
  in
  let cfg = { small_config with Pmo2.Archipelago.guard_penalty = Some 1e12 } in
  let r = Pmo2.Archipelago.run ~seed:11 ~generations:20 problem cfg in
  Alcotest.(check int) "one guard per island" 2
    (Array.length r.Pmo2.Archipelago.guard_stats);
  let penalized =
    Array.fold_left
      (fun acc s -> acc + Runtime.Guard.failures s)
      0 r.Pmo2.Archipelago.guard_stats
  in
  Alcotest.(check bool) "failures were penalized, not fatal" true (penalized > 0);
  Alcotest.(check bool) "no island crashed" true (r.Pmo2.Archipelago.failures = 0);
  Alcotest.(check bool) "front survives" true (r.Pmo2.Archipelago.front <> [])

let test_guard_telemetry_off_by_default () =
  let problem = Moo.Benchmarks.zdt1 ~n:6 in
  let r = Pmo2.Archipelago.run ~seed:12 ~generations:10 problem small_config in
  Alcotest.(check int) "no guards without opting in" 0
    (Array.length r.Pmo2.Archipelago.guard_stats)

(* {1 Checkpoint inspection} *)

let test_inspect_reports_metadata () =
  let problem = Moo.Benchmarks.zdt1 ~n:6 in
  let cfg = { small_config with Pmo2.Archipelago.guard_penalty = Some 1e12 } in
  with_temp_file (fun path ->
      let r = Pmo2.Archipelago.run ~seed:13 ~checkpoint:path ~generations:20 problem cfg in
      let info = Pmo2.Archipelago.inspect path in
      Alcotest.(check string) "problem name" "zdt1" info.Pmo2.Archipelago.info_problem;
      Alcotest.(check int) "generations" 20 info.Pmo2.Archipelago.info_generations;
      Alcotest.(check int) "period" 10 info.Pmo2.Archipelago.info_period;
      Alcotest.(check int) "islands" 2 (Array.length info.Pmo2.Archipelago.info_islands);
      Alcotest.(check int) "guards" 2 (Array.length info.Pmo2.Archipelago.info_guards);
      Array.iter
        (fun isl ->
          Alcotest.(check string) "algo" "nsga2" isl.Pmo2.Archipelago.info_algo;
          Alcotest.(check int) "island generation" 20 isl.Pmo2.Archipelago.info_generation)
        info.Pmo2.Archipelago.info_islands;
      let snap_evals =
        Array.fold_left
          (fun acc isl -> acc + isl.Pmo2.Archipelago.info_evaluations)
          0 info.Pmo2.Archipelago.info_islands
      in
      Alcotest.(check int) "evaluations match the run" r.Pmo2.Archipelago.evaluations
        snap_evals)

let test_inspect_rejects_corrupt_file () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not a checkpoint\n";
      close_out oc;
      Alcotest.(check bool) "corrupt file raises" true
        (match Pmo2.Archipelago.inspect path with
        | exception Runtime.Checkpoint.Corrupt _ -> true
        | _ -> false));
  Alcotest.(check bool) "missing file raises" true
    (match Pmo2.Archipelago.inspect "/nonexistent/robustpath.ckpt" with
    | exception Runtime.Checkpoint.Corrupt _ -> true
    | _ -> false)

(* {1 Precondition validation (must survive -noassert)} *)

let test_invalid_arg_preconditions () =
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  expect_invalid "init: zero islands" (fun () ->
      Pmo2.Archipelago.init (Moo.Benchmarks.zdt1 ~n:4)
        { small_config with Pmo2.Archipelago.n_islands = 0 });
  expect_invalid "init: zero period" (fun () ->
      Pmo2.Archipelago.init (Moo.Benchmarks.zdt1 ~n:4)
        { small_config with Pmo2.Archipelago.migration_period = 0 });
  expect_invalid "init: bad probability" (fun () ->
      Pmo2.Archipelago.init (Moo.Benchmarks.zdt1 ~n:4)
        { small_config with Pmo2.Archipelago.migration_prob = 1.5 });
  expect_invalid "run: keep_checkpoints < 1" (fun () ->
      Pmo2.Archipelago.run ~checkpoint:"unused.ckpt" ~keep_checkpoints:0 ~generations:10
        (Moo.Benchmarks.zdt1 ~n:4) small_config)

let () =
  Alcotest.run "fault"
    [
      ( "ode-fallback",
        [
          Alcotest.test_case "dopri5 underflows on stiff" `Quick test_dopri5_underflows_on_stiff;
          Alcotest.test_case "steady_state survives" `Quick test_ode_steady_state_survives_stiffness;
        ] );
      ( "guard",
        [
          Alcotest.test_case "penalizes exceptions" `Quick test_guard_penalizes_exceptions;
          Alcotest.test_case "sanitizes non-finite" `Quick test_guard_sanitizes_non_finite;
          Alcotest.test_case "wraps problems" `Quick test_guard_problem_wrapping;
          Alcotest.test_case "penalty must be finite" `Quick test_guard_rejects_non_finite_penalty;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "decision is pure" `Quick test_fault_decide_is_pure;
          Alcotest.test_case "fraction bounds" `Quick test_fault_fraction_bounds;
          Alcotest.test_case "modes behave" `Quick test_fault_modes_behave;
        ] );
      ( "archipelago",
        [
          Alcotest.test_case "completes under 5% faults" `Quick test_run_completes_under_faults;
          Alcotest.test_case "faulted run deterministic" `Slow
            test_faulted_run_deterministic_parallel_and_sequential;
          Alcotest.test_case "supervisor absorbs crashes" `Quick
            test_supervisor_absorbs_island_crash;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill and resume bit-for-bit" `Quick test_kill_and_resume_bit_for_bit;
          Alcotest.test_case "kill and resume under the pool" `Quick
            test_pooled_kill_and_resume;
          Alcotest.test_case "mixed islands resume" `Quick test_resume_spea2_and_mixed_islands;
          Alcotest.test_case "validation" `Quick test_checkpoint_validation;
          Alcotest.test_case "corrupt file detected" `Quick test_corrupt_checkpoint_detected;
          Alcotest.test_case "numbered history primitives" `Quick
            test_numbered_history_primitives;
          Alcotest.test_case "keep_checkpoints prunes and resumes" `Quick
            test_keep_checkpoints_prunes_and_resumes;
          Alcotest.test_case "corrupted file refused" `Quick test_corrupted_checkpoint_refused;
          Alcotest.test_case "frame fuzz: decode or Corrupt" `Quick test_frame_fuzz;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "per-island guard counters" `Quick test_per_island_guard_telemetry;
          Alcotest.test_case "off by default" `Quick test_guard_telemetry_off_by_default;
        ] );
      ( "inspect",
        [
          Alcotest.test_case "reports metadata" `Quick test_inspect_reports_metadata;
          Alcotest.test_case "rejects corrupt file" `Quick test_inspect_rejects_corrupt_file;
        ] );
      ( "preconditions",
        [ Alcotest.test_case "invalid_arg everywhere" `Quick test_invalid_arg_preconditions ] );
    ]
