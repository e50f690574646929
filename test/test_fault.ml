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
  Alcotest.(check int) "non-finite counted" 1 s.Runtime.Guard.non_finite;
  Runtime.Guard.reset g;
  Alcotest.(check int) "reset" 0 (Runtime.Guard.stats g).Runtime.Guard.evaluations

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
  let cfg = { Runtime.Fault.default with fraction = 0.5; seed = 3 } in
  let rng = Numerics.Rng.create 1 in
  for _ = 1 to 50 do
    let x = Array.init 4 (fun _ -> Numerics.Rng.float rng) in
    let a = Runtime.Fault.decide cfg x and b = Runtime.Fault.decide cfg x in
    Alcotest.(check bool) "same x, same decision" true (a = b)
  done

let test_fault_fraction_bounds () =
  let rng = Numerics.Rng.create 2 in
  let xs = Array.init 2000 (fun _ -> Array.init 3 (fun _ -> Numerics.Rng.float rng)) in
  let count frac =
    let cfg = { Runtime.Fault.default with fraction = frac } in
    Array.fold_left
      (fun acc x -> if Runtime.Fault.decide cfg x <> None then acc + 1 else acc)
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
  let raise_cfg = { Runtime.Fault.default with fraction = 1.; modes = [ Runtime.Fault.Raise ] } in
  let nan_cfg = { raise_cfg with modes = [ Runtime.Fault.Nan ] } in
  let stall_cfg = { raise_cfg with modes = [ Runtime.Fault.Stall ]; stall_iters = 100 } in
  let f x = [| x.(0) |] in
  Alcotest.(check bool) "raise mode raises" true
    (match Runtime.Fault.wrap raise_cfg ~n_obj:1 f [| 0.5 |] with
    | exception Runtime.Fault.Injected -> true
    | _ -> false);
  Alcotest.(check bool) "nan mode poisons" true
    (Float.is_nan (Runtime.Fault.wrap nan_cfg ~n_obj:1 f [| 0.5 |]).(0));
  Alcotest.(check (array (float 0.))) "stall mode still answers" [| 0.5 |]
    (Runtime.Fault.wrap stall_cfg ~n_obj:1 f [| 0.5 |]);
  Alcotest.(check bool) "malformed fraction refused" true
    (match Runtime.Fault.decide { raise_cfg with fraction = 2. } [| 0. |] with
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
      Runtime.Fault.fraction;
      seed;
      modes = [ Runtime.Fault.Raise; Runtime.Fault.Nan; Runtime.Fault.Stall ];
      stall_iters = 500;
    }
  in
  Runtime.Guard.wrap_problem guard (Runtime.Fault.wrap_problem cfg (Moo.Benchmarks.zdt1 ~n:8))

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
    Runtime.Fault.wrap_problem
      { Runtime.Fault.fraction = 0.05; seed = 17; modes = [ Runtime.Fault.Nan ]; stall_iters = 500 }
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
  with_temp_file (fun path ->
      let st = Pmo2.Archipelago.init ~seed:3 problem small_config in
      Pmo2.Archipelago.step_epoch st;
      Pmo2.Archipelago.save st path;
      (* Same file, different problem: refused. *)
      Alcotest.(check bool) "wrong problem refused" true
        (match Pmo2.Archipelago.load Moo.Benchmarks.schaffer small_config path with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* Same file, different island layout: refused. *)
      Alcotest.(check bool) "wrong island count refused" true
        (match
           Pmo2.Archipelago.load problem
             { small_config with Pmo2.Archipelago.n_islands = 3 }
             path
         with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* Good load restores counters exactly. *)
      let st' = Pmo2.Archipelago.load problem small_config path in
      Alcotest.(check int) "generation counter restored" 10
        (Pmo2.Archipelago.generations_done st');
      Alcotest.(check int) "evaluation counter restored"
        (Pmo2.Archipelago.evaluations st)
        (Pmo2.Archipelago.evaluations st'))

let test_corrupt_checkpoint_detected () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not a checkpoint\n";
      close_out oc;
      Alcotest.(check bool) "bad magic detected" true
        (match
           Pmo2.Archipelago.load (Moo.Benchmarks.zdt1 ~n:6) small_config path
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
      Alcotest.(check (option string)) "no history yet" None (Runtime.Checkpoint.latest path);
      List.iter
        (fun i ->
          Runtime.Checkpoint.save ~magic:"history-test"
            ~path:(Runtime.Checkpoint.numbered path i)
            i)
        [ 1; 2; 3; 4 ];
      Alcotest.(check (option string)) "latest is newest"
        (Some (Runtime.Checkpoint.numbered path 4))
        (Runtime.Checkpoint.latest path);
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
      let newest = Option.get (Runtime.Checkpoint.latest path) in
      Alcotest.(check string) "latest finds epoch 2"
        (Runtime.Checkpoint.numbered path 2) newest;
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

(* {1 Legacy (v1) checkpoints} *)

(* Marshal-layout mirrors of the archipelago's checkpoint payloads, used
   to manufacture a genuine v1 fixture from a current checkpoint: v1 is
   exactly v2 minus the trailing guard-stats field. *)
type snapshot_v2_repr = {
  r2_problem : string;
  r2_period : int;
  r2_n_islands : int;
  r2_islands : Pmo2.Island.snapshot array;
  r2_rng : int64;
  r2_archive : Moo.Solution.t list;
  r2_gens : int;
  r2_failures : int;
  r2_guards : Runtime.Guard.stats array;
}
[@@warning "-69"]

type snapshot_v1_repr = {
  r1_problem : string;
  r1_period : int;
  r1_n_islands : int;
  r1_islands : Pmo2.Island.snapshot array;
  r1_rng : int64;
  r1_archive : Moo.Solution.t list;
  r1_gens : int;
  r1_failures : int;
}
[@@warning "-69"]

let magic_v1 = "robustpath-archipelago-checkpoint v1"
let magic_v2 = "robustpath-archipelago-checkpoint v2"

let downgrade_checkpoint ~src ~dst =
  let s : snapshot_v2_repr = Runtime.Checkpoint.load ~magic:magic_v2 ~path:src in
  Runtime.Checkpoint.save ~magic:magic_v1 ~path:dst
    {
      r1_problem = s.r2_problem;
      r1_period = s.r2_period;
      r1_n_islands = s.r2_n_islands;
      r1_islands = s.r2_islands;
      r1_rng = s.r2_rng;
      r1_archive = s.r2_archive;
      r1_gens = s.r2_gens;
      r1_failures = s.r2_failures;
    }

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_v1_checkpoint_inspect_and_resume () =
  let problem = Moo.Benchmarks.zdt1 ~n:8 in
  let full = Pmo2.Archipelago.run ~seed:21 ~generations:40 problem small_config in
  with_temp_file (fun v2path ->
      with_temp_file (fun v1path ->
          let _ =
            Pmo2.Archipelago.run ~seed:21 ~checkpoint:v2path ~generations:20 problem
              small_config
          in
          downgrade_checkpoint ~src:v2path ~dst:v1path;
          (* inspect reports the version and the missing telemetry instead
             of failing. *)
          let info = Pmo2.Archipelago.inspect v1path in
          Alcotest.(check int) "format version" 1 info.Pmo2.Archipelago.info_version;
          Alcotest.(check int) "no guard stats" 0
            (Array.length info.Pmo2.Archipelago.info_guards);
          Alcotest.(check string) "problem name" "zdt1" info.Pmo2.Archipelago.info_problem;
          Alcotest.(check int) "generations" 20 info.Pmo2.Archipelago.info_generations;
          let rendered = Format.asprintf "%a" Pmo2.Archipelago.pp_info info in
          Alcotest.(check bool) "pp names the format" true
            (contains_substring ~sub:"checkpoint format v1" rendered);
          Alcotest.(check bool) "pp flags missing telemetry" true
            (contains_substring ~sub:"not recorded" rendered);
          (* a v2 checkpoint of the same run reports version 2 *)
          Alcotest.(check int) "v2 reports 2" 2
            (Pmo2.Archipelago.inspect v2path).Pmo2.Archipelago.info_version;
          (* resume accepts the v1 file (guard counters start fresh) and
             reproduces the uninterrupted run. *)
          let resumed =
            Pmo2.Archipelago.run ~seed:21 ~resume:v1path ~generations:40 problem
              small_config
          in
          Alcotest.(check bool) "v1 resume identical" true (objs full = objs resumed)))

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
          Alcotest.test_case "v1 inspect and resume" `Quick
            test_v1_checkpoint_inspect_and_resume;
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
