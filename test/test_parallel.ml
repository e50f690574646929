(* Tests for the persistent domain pool: scheduling correctness,
   exception discipline, nesting, the default-pool lifecycle — and the
   determinism contract: pooled evaluation at any worker count must be
   bit-for-bit equal to the sequential path, across the archipelago and
   robustness ensembles. *)

(* {1 Pool basics} *)

let with_pool domains f =
  let pool = Parallel.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () -> f pool)

(* [parallel_map] is the pool's parallel for-loop: whatever the width,
   the shared cursor hands out every index of [0, n) exactly once. *)
let test_parallel_for_covers_every_index () =
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let n = 103 in
          let runs = Array.init n (fun _ -> Atomic.make 0) in
          let out = Array.make n 0 in
          ignore
            (Parallel.Pool.parallel_map pool ~n (fun i ->
                 Atomic.incr runs.(i);
                 out.(i) <- (i * i) + 1));
          Alcotest.(check (array int))
            (Printf.sprintf "squares at %d domains" domains)
            (Array.init n (fun i -> (i * i) + 1))
            out;
          Alcotest.(check (array int))
            (Printf.sprintf "each index once at %d domains" domains)
            (Array.make n 1) (Array.map Atomic.get runs)))
    [ 1; 2; 4 ]

let test_parallel_map_orders_results () =
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let n = 57 in
          let got = Parallel.Pool.parallel_map pool ~n (fun i -> 3 * i) in
          Alcotest.(check (array int))
            (Printf.sprintf "ordered at %d domains" domains)
            (Array.init n (fun i -> 3 * i))
            got))
    [ 1; 3 ]

let test_empty_and_sequential () =
  with_pool 2 (fun pool ->
      Alcotest.(check (array int)) "n = 0 yields [||]" [||]
        (Parallel.Pool.parallel_map pool ~n:0 (fun i -> i)));
  (* A one-domain pool is the sequential reference: the items run in
     the caller's domain, in index order. *)
  with_pool 1 (fun pool ->
      let caller = (Domain.self () :> int) in
      let visits = ref [] in
      Alcotest.(check (array int)) "one-domain pool maps" [| 0; 1; 2 |]
        (Parallel.Pool.parallel_map pool ~n:3 (fun i ->
             visits := (i, (Domain.self () :> int)) :: !visits;
             i));
      Alcotest.(check (list (pair int int))) "inline, in index order"
        [ (0, caller); (1, caller); (2, caller) ]
        (List.rev !visits))

(* A job of at most one item never wakes the workers: it runs inline,
   so tracing records no [pool.run] span for it. *)
let test_small_jobs_run_inline () =
  with_pool 2 (fun pool ->
      Obs.Span.reset ();
      Obs.Span.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Span.set_enabled false;
          Obs.Span.reset ())
        (fun () ->
          let pool_runs () =
            List.length
              (List.filter (fun e -> e.Obs.Span.name = "pool.run") (Obs.Span.events ()))
          in
          Alcotest.(check (array int)) "n = 1" [| 7 |]
            (Parallel.Pool.parallel_map pool ~n:1 (fun i -> i + 7));
          Alcotest.(check (array int)) "n = 0" [||]
            (Parallel.Pool.parallel_map pool ~n:0 (fun i -> i));
          Alcotest.(check int) "no pool.run span" 0 (pool_runs ());
          ignore (Parallel.Pool.parallel_map pool ~n:2 (fun i -> i));
          Alcotest.(check int) "n = 2 is pooled" 1 (pool_runs ())))

let test_exception_is_lowest_failing_index () =
  (* The re-raised failure is the lowest failing item — a deterministic
     choice, not first-by-wall-clock. *)
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "lowest index wins at %d domains" domains)
            "item-10"
            (match
               Parallel.Pool.parallel_map pool ~n:40 (fun i ->
                   if i = 10 || i = 23 then failwith (Printf.sprintf "item-%d" i))
             with
            | _ -> "no exception"
            | exception Failure msg -> msg)))
    [ 1; 2; 4 ]

let test_pool_survives_a_failed_job () =
  with_pool 2 (fun pool ->
      (match Parallel.Pool.parallel_map pool ~n:8 (fun _ -> failwith "boom") with
      | _ -> Alcotest.fail "expected the job to raise"
      | exception Failure _ -> ());
      Alcotest.(check (array int)) "next job runs normally" [| 0; 1; 2; 3 |]
        (Parallel.Pool.parallel_map pool ~n:4 (fun i -> i)))

let test_nested_submission_runs_inline () =
  with_pool 2 (fun pool ->
      let got =
        Parallel.Pool.parallel_map pool ~n:4 (fun i ->
            (* A submission from inside a task must not deadlock on the
               pool; it degrades to an inline loop. *)
            Array.fold_left ( + ) 0
              (Parallel.Pool.parallel_map pool ~n:5 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int)) "nested totals"
        (Array.init 4 (fun i ->
             Array.fold_left ( + ) 0 (Array.init 5 (fun j -> (10 * i) + j))))
        got)

let test_shutdown_degrades_to_inline () =
  let pool = Parallel.Pool.create ~domains:3 () in
  Alcotest.(check int) "domains" 3 (Parallel.Pool.domains pool);
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  Alcotest.(check (array int)) "after shutdown, submissions run inline" [| 0; 2; 4 |]
    (Parallel.Pool.parallel_map pool ~n:3 (fun i -> 2 * i))

let test_invalid_arguments () =
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  expect_invalid "create: 0 domains" (fun () -> Parallel.Pool.create ~domains:0 ());
  expect_invalid "set_default_domains: 0" (fun () -> Parallel.Pool.set_default_domains 0);
  with_pool 2 (fun pool ->
      expect_invalid "parallel_map: negative n" (fun () ->
          ignore (Parallel.Pool.parallel_map pool ~n:(-2) (fun i -> i))))

let test_default_pool_lifecycle () =
  Parallel.Pool.set_default_domains 2;
  let a = Parallel.Pool.get () in
  Alcotest.(check int) "requested width" 2 (Parallel.Pool.domains a);
  Alcotest.(check bool) "get is cached" true (Parallel.Pool.get () == a);
  Parallel.Pool.set_default_domains 2;
  Alcotest.(check bool) "same width keeps the pool" true (Parallel.Pool.get () == a);
  Parallel.Pool.set_default_domains 3;
  let b = Parallel.Pool.get () in
  Alcotest.(check bool) "new width replaces the pool" true (b != a);
  Alcotest.(check int) "new width" 3 (Parallel.Pool.domains b);
  Parallel.Pool.set_default_domains 1

(* {1 Per-item RNG streams} *)

let test_rng_stream_is_pure () =
  let draws seed index =
    let rng = Numerics.Rng.stream ~seed index in
    List.init 5 (fun _ -> Numerics.Rng.float rng)
  in
  Alcotest.(check (list (float 0.))) "same (seed, index), same stream"
    (draws 42 7) (draws 42 7);
  Alcotest.(check bool) "different index, different stream" true
    (draws 42 7 <> draws 42 8);
  Alcotest.(check bool) "different seed, different stream" true
    (draws 42 7 <> draws 43 7);
  Alcotest.(check bool) "negative index refused" true
    (match Numerics.Rng.stream ~seed:1 (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* {1 Determinism: pooled = sequential, bit for bit} *)

let sorted_objs front =
  List.sort compare (List.map (fun s -> Array.to_list s.Moo.Solution.f) front)

(* The paper's photo problem through the archipelago: islands evolved on
   the pool and populations evaluated on the pool must reproduce the
   sequential run exactly at every worker count. *)
let test_photo_archipelago_pooled_equals_sequential () =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let problem = Photo.Leaf.problem env in
  let run ~pool =
    let cfg =
      {
        Pmo2.Archipelago.default_config with
        migration_period = 2;
        guard_penalty = Some 1e12;
        parallel = Option.is_some pool;
        nsga2 = { Ea.Nsga2.default_config with pop_size = 8; pool };
      }
    in
    Pmo2.Archipelago.run ~seed:2011 ~generations:4 problem cfg
  in
  let reference = run ~pool:None in
  List.iter
    (fun domains ->
      Parallel.Pool.set_default_domains domains;
      let pooled = run ~pool:(Some (Parallel.Pool.get ())) in
      Alcotest.(check bool)
        (Printf.sprintf "front bit-identical at %d domains" domains)
        true
        (sorted_objs reference.Pmo2.Archipelago.front
        = sorted_objs pooled.Pmo2.Archipelago.front);
      Alcotest.(check int)
        (Printf.sprintf "evaluations identical at %d domains" domains)
        reference.Pmo2.Archipelago.evaluations pooled.Pmo2.Archipelago.evaluations;
      Alcotest.(check bool)
        (Printf.sprintf "guard telemetry identical at %d domains" domains)
        true
        (reference.Pmo2.Archipelago.guard_stats = pooled.Pmo2.Archipelago.guard_stats))
    [ 1; 2; 4 ];
  Parallel.Pool.set_default_domains 1

let test_gamma_pool_deterministic_across_widths () =
  let f x = sin (x.(0) *. 3.) +. (x.(1) *. x.(1)) -. cos x.(2) in
  let x = [| 1.0; 0.5; 2.0 |] in
  let gamma pool = Robustness.Yield.gamma_pool ~pool ~seed:7 ~f ~trials:500 x in
  (* The one-domain pool runs the trials inline: the sequential
     reference. *)
  with_pool 1 @@ fun p1 ->
  let reference = gamma p1 in
  Alcotest.(check bool) "some trials survive" true
    (reference.Robustness.Yield.survivors > 0);
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "yield identical at %d domains" domains)
            true
            (gamma pool = reference)))
    [ 2; 4 ];
  (* The screens run on the default pool; item i must equal a one-domain
     gamma_pool under seed + i, whatever the pool width. *)
  let seed = 11 in
  let item i ?index x =
    (Robustness.Yield.gamma_pool ~pool:p1 ~seed:(seed + i) ~f ~trials:200 ?index x)
      .Robustness.Yield.yield_pct
  in
  let front =
    List.init 12 (fun i ->
        let t = float_of_int i /. 11. in
        let x = [| 0.5 +. t; 1. -. (0.5 *. t); 2. *. t |] in
        { Moo.Solution.x; f = [| t; 1. -. t |]; v = 0. })
  in
  let screens () =
    let profile = Robustness.Screen.local_analysis ~seed ~f ~trials:200 x in
    let sweep = Robustness.Screen.front_sweep ~seed ~f ~trials:200 ~k:5 front in
    ( List.map (fun p -> p.Robustness.Screen.yield_pct) profile,
      List.map
        (fun e ->
          (e.Robustness.Screen.solution.Moo.Solution.x,
           e.Robustness.Screen.yield.Robustness.Yield.yield_pct))
        sweep )
  in
  let reference_profile = List.init (Array.length x) (fun i -> item i ~index:i x) in
  Alcotest.(check bool) "profile is not flat" true
    (List.exists (fun y -> y < 100.) reference_profile);
  List.iter
    (fun domains ->
      Parallel.Pool.set_default_domains domains;
      let profile, sweep = screens () in
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "local profile = per-item sequential at %d domains" domains)
        reference_profile profile;
      Alcotest.(check int) "sweep size" 5 (List.length sweep);
      List.iteri
        (fun i (xi, y) ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "sweep item %d = sequential at %d domains" i domains)
            (item i xi) y)
        sweep)
    [ 1; 2 ];
  Parallel.Pool.set_default_domains 1

(* {1 Pool observability} *)

let test_pool_counters_tick_when_enabled () =
  Obs.Metrics.set_enabled true;
  let before = (Parallel.Pool.stats ()).Parallel.Pool.tasks in
  with_pool 2 (fun pool -> ignore (Parallel.Pool.parallel_map pool ~n:16 (fun i -> i)));
  Obs.Metrics.set_enabled false;
  let after = (Parallel.Pool.stats ()).Parallel.Pool.tasks in
  Alcotest.(check int) "pool.tasks counts the job's items" 16 (after - before)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers every index" `Quick
            test_parallel_for_covers_every_index;
          Alcotest.test_case "parallel_map orders results" `Quick
            test_parallel_map_orders_results;
          Alcotest.test_case "empty and sequential paths" `Quick test_empty_and_sequential;
          Alcotest.test_case "n ≤ 1 runs inline" `Quick test_small_jobs_run_inline;
          Alcotest.test_case "lowest failing index wins" `Quick
            test_exception_is_lowest_failing_index;
          Alcotest.test_case "pool survives a failed job" `Quick
            test_pool_survives_a_failed_job;
          Alcotest.test_case "nested submission runs inline" `Quick
            test_nested_submission_runs_inline;
          Alcotest.test_case "shutdown degrades to inline" `Quick
            test_shutdown_degrades_to_inline;
          Alcotest.test_case "invalid arguments refused" `Quick test_invalid_arguments;
          Alcotest.test_case "default pool lifecycle" `Quick test_default_pool_lifecycle;
        ] );
      ( "rng",
        [ Alcotest.test_case "stream is pure per (seed, index)" `Quick test_rng_stream_is_pure ] );
      ( "determinism",
        [
          Alcotest.test_case "photo archipelago pooled = sequential" `Slow
            test_photo_archipelago_pooled_equals_sequential;
          Alcotest.test_case "robustness ensembles pooled = sequential" `Quick
            test_gamma_pool_deterministic_across_widths;
        ] );
      ( "observability",
        [
          Alcotest.test_case "pool counters tick when enabled" `Quick
            test_pool_counters_tick_when_enabled;
        ] );
    ]
