(* Tests for the evaluation cache + warm-start layer: canonical genotype
   hashing, the LRU memo, deduplicated batch evaluation, cache-enabled
   archipelagos (bit-identical fronts at any domain count, resumable),
   simplex basis round-trips and cooperative ODE deadlines on the leaf
   relaxation. *)

(* {1 Fnv} *)

let test_fnv_hash_and_equal () =
  let a = [| 1.0; -0.5; 3.25 |] in
  let b = [| 1.0; -0.5; 3.25 |] in
  Alcotest.(check bool) "equal vectors" true (Cache.Fnv.equal a b);
  Alcotest.(check bool) "equal hashes" true (Int64.equal (Cache.Fnv.hash a) (Cache.Fnv.hash b));
  let c = [| 1.0; -0.5; 3.250000001 |] in
  Alcotest.(check bool) "unequal vectors" false (Cache.Fnv.equal a c);
  (* +0. and -0. are numerically equal but different bit patterns: the
     cache must treat them as different keys (bit-exact contract). *)
  Alcotest.(check bool) "signed zeros differ" false (Cache.Fnv.equal [| 0. |] [| -0. |]);
  (* NaN equals itself bitwise, so a NaN genotype cannot poison lookup. *)
  Alcotest.(check bool) "nan self-equal" true (Cache.Fnv.equal [| Float.nan |] [| Float.nan |]);
  Alcotest.(check bool) "length mismatch" false (Cache.Fnv.equal [| 1. |] [| 1.; 2. |])

(* {1 Memo} *)

(* The memo under the hash [Batch.evaluate] passes it. *)
let find m k = Cache.Memo.find m ~hash:(Cache.Fnv.hash k) k
let add m k v = Cache.Memo.add m ~hash:(Cache.Fnv.hash k) k v

let test_memo_lru_eviction () =
  let m : int Cache.Memo.t = Cache.Memo.create ~capacity:2 in
  let k1 = [| 1. |] and k2 = [| 2. |] and k3 = [| 3. |] in
  add m k1 1;
  add m k2 2;
  (* Touch k1 so k2 becomes the least recently used... *)
  Alcotest.(check (option int)) "hit k1" (Some 1) (find m k1);
  (* ...then overflow: k2 must be the victim, deterministically. *)
  add m k3 3;
  let s = Cache.Memo.stats m in
  Alcotest.(check int) "one eviction" 1 s.Cache.Memo.evictions;
  Alcotest.(check int) "size" 2 s.Cache.Memo.size;
  (* Lookups last: a hit refreshes recency, and nothing is added after. *)
  Alcotest.(check (option int)) "k2 evicted" None (find m k2);
  Alcotest.(check (option int)) "k1 survives" (Some 1) (find m k1);
  Alcotest.(check (option int)) "k3 present" (Some 3) (find m k3);
  Cache.Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Cache.Memo.stats m).Cache.Memo.size;
  Alcotest.(check int) "counters survive clear" 1 (Cache.Memo.stats m).Cache.Memo.evictions

let test_memo_replace_refreshes () =
  let m : int Cache.Memo.t = Cache.Memo.create ~capacity:2 in
  add m [| 1. |] 1;
  add m [| 2. |] 2;
  (* Re-adding key 1 refreshes it without evicting anyone. *)
  add m [| 1. |] 10;
  Alcotest.(check int) "no eviction" 0 (Cache.Memo.stats m).Cache.Memo.evictions;
  Alcotest.(check (option int)) "value replaced" (Some 10) (find m [| 1. |]);
  add m [| 3. |] 3;
  Alcotest.(check (option int)) "2 was LRU after refresh" None (find m [| 2. |])

(* [Fnv.equal] decides every hit: a key looked up or filed under a hash
   that is not its own is never confused with another key, it only
   misses. *)
let test_memo_wrong_hash_misses () =
  let m : int Cache.Memo.t = Cache.Memo.create ~capacity:4 in
  let k1 = [| 1. |] and k2 = [| 2. |] in
  add m k1 1;
  Alcotest.(check (option int)) "k2 under k1's hash" None
    (Cache.Memo.find m ~hash:(Cache.Fnv.hash k1) k2);
  Alcotest.(check (option int)) "k1 under k2's hash" None
    (Cache.Memo.find m ~hash:(Cache.Fnv.hash k2) k1);
  Cache.Memo.add m ~hash:(Cache.Fnv.hash k1) k2 2;
  Alcotest.(check (option int)) "k2 filed under k1's hash" None (find m k2);
  Alcotest.(check (option int)) "k1 intact" (Some 1) (find m k1)

(* {1 Batch} *)

let test_batch_dedups_within_batch () =
  let keys = [| [| 1. |]; [| 2. |]; [| 1. |]; [| 3. |]; [| 2. |]; [| 1. |] |] in
  let calls = ref 0 in
  let out =
    Cache.Batch.evaluate ~n:6
      ~key:(fun i -> keys.(i))
      (fun i ->
        incr calls;
        keys.(i).(0) *. 10.)
  in
  Alcotest.(check int) "three distinct keys, three calls" 3 !calls;
  Alcotest.(check (array (float 0.))) "all slots filled"
    [| 10.; 20.; 10.; 30.; 20.; 10. |] out

let test_batch_memo_across_batches () =
  let memo : float Cache.Memo.t = Cache.Memo.create ~capacity:8 in
  let keys = [| [| 1. |]; [| 2. |] |] in
  let calls = ref 0 in
  let eval i =
    incr calls;
    keys.(i).(0) +. 0.5
  in
  let r1 = Cache.Batch.evaluate ~memo ~n:2 ~key:(fun i -> keys.(i)) eval in
  Alcotest.(check int) "cold batch evaluates" 2 !calls;
  let r2 = Cache.Batch.evaluate ~memo ~n:2 ~key:(fun i -> keys.(i)) eval in
  Alcotest.(check int) "warm batch replays" 2 !calls;
  Alcotest.(check (array (float 0.))) "identical results" r1 r2;
  Alcotest.(check int) "two memo hits" 2 (Cache.Memo.stats memo).Cache.Memo.hits

(* {1 EA + archipelago determinism with the cache} *)

let arch_config ~pool ~cache_size =
  {
    Pmo2.Archipelago.default_config with
    migration_period = 10;
    nsga2 = { Ea.Nsga2.default_config with pop_size = 16; pool };
    parallel = Option.is_some pool;
    cache_size;
  }

let objs r =
  List.sort compare
    (List.map (fun s -> Array.to_list s.Moo.Solution.f) r.Pmo2.Archipelago.front)

let test_cache_fronts_bit_identical () =
  let problem = Moo.Benchmarks.zdt1 ~n:6 in
  let reference =
    Pmo2.Archipelago.run ~seed:33 ~generations:30 problem
      (arch_config ~pool:None ~cache_size:None)
  in
  (* The cached run must reproduce the uncached front bit for bit, at
     any domain count: hits replay values computed from bit-identical
     genotypes and all memo traffic is sequential. *)
  List.iter
    (fun domains ->
      Parallel.Pool.set_default_domains domains;
      let pool = if domains = 1 then None else Some (Parallel.Pool.get ()) in
      let cached =
        Pmo2.Archipelago.run ~seed:33 ~generations:30 problem
          (arch_config ~pool ~cache_size:(Some 512))
      in
      Alcotest.(check bool)
        (Printf.sprintf "front identical at %d domains" domains)
        true
        (objs reference = objs cached);
      Alcotest.(check int)
        (Printf.sprintf "requested evaluations identical at %d domains" domains)
        reference.Pmo2.Archipelago.evaluations cached.Pmo2.Archipelago.evaluations;
      Alcotest.(check int) "per-island cache telemetry present" 2
        (Array.length cached.Pmo2.Archipelago.cache_stats))
    [ 1; 2; 4 ];
  Parallel.Pool.set_default_domains 1

let with_temp_file f =
  let path = Filename.temp_file "robustpath" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_kill_and_resume_with_cache () =
  (* The memo is never checkpointed; a resumed run restarts it cold and
     must still match the uninterrupted cached run bit for bit. *)
  let problem = Moo.Benchmarks.zdt1 ~n:8 in
  let cfg = arch_config ~pool:None ~cache_size:(Some 256) in
  let full = Pmo2.Archipelago.run ~seed:21 ~generations:40 problem cfg in
  with_temp_file (fun path ->
      let _half = Pmo2.Archipelago.run ~seed:21 ~checkpoint:path ~generations:20 problem cfg in
      let resumed = Pmo2.Archipelago.run ~seed:21 ~resume:path ~generations:40 problem cfg in
      Alcotest.(check bool) "identical fronts" true (objs full = objs resumed);
      Alcotest.(check int) "identical evaluation counts" full.Pmo2.Archipelago.evaluations
        resumed.Pmo2.Archipelago.evaluations)

let test_cache_size_validation () =
  Alcotest.check_raises "cache_size 0 rejected"
    (Invalid_argument "Archipelago.init: cache_size must be >= 1") (fun () ->
      ignore
        (Pmo2.Archipelago.init (Moo.Benchmarks.zdt1 ~n:4)
           (arch_config ~pool:None ~cache_size:(Some 0))))

(* {1 Simplex warm starts} *)

(* max 2x + y  s.t.  x + y = 1, x,y >= 0: optimum (1,0), objective 2. *)
let tiny_lp rhs =
  {
    Lp.Simplex.n_rows = 1;
    cols = Testkit.Sparse.of_columns ~rows:1 [| [ (0, 1.) ]; [ (0, 1.) ] |];
    rhs = [| rhs |];
    obj = [| 2.; 1. |];
    lo = [| 0.; 0. |];
    up = [| infinity; infinity |];
  }

let check_optimal what expected = function
  | Lp.Simplex.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-9)) what expected objective
  | _ -> Alcotest.failf "%s: expected Optimal" what

let warm_outcome basis spec = fst (Lp.Simplex.solve ~basis spec)

let test_simplex_basis_round_trip () =
  let outcome, basis = Lp.Simplex.solve (tiny_lp 1.) in
  check_optimal "cold solve" 2. outcome;
  let basis = Option.get basis in
  Obs.Metrics.set_enabled true;
  let warm_c = Obs.Metrics.counter "simplex.warm_starts" in
  let before = Obs.Metrics.counter_value warm_c in
  (* Same LP, warm start: identical outcome. *)
  check_optimal "warm re-solve" 2. (warm_outcome basis (tiny_lp 1.));
  (* Perturbed rhs: the parent basis is still a feasible vertex; the
     warm solve lands on the scaled optimum. *)
  check_optimal "warm neighbor solve" 4. (warm_outcome basis (tiny_lp 2.));
  let after = Obs.Metrics.counter_value warm_c in
  Obs.Metrics.set_enabled false;
  Alcotest.(check int) "both solves warm-started" 2 (after - before)

let test_simplex_bad_basis_falls_back () =
  (* A basis of the wrong shape is rejected, and the solver silently
     falls back to the cold path with the same answer. *)
  let _, basis = Lp.Simplex.solve (tiny_lp 1.) in
  let basis = Option.get basis in
  let bigger =
    {
      Lp.Simplex.n_rows = 1;
      cols = Testkit.Sparse.of_columns ~rows:1 [| [ (0, 1.) ]; [ (0, 1.) ]; [ (0, 1.) ] |];
      rhs = [| 1. |];
      obj = [| 2.; 1.; 0. |];
      lo = [| 0.; 0.; 0. |];
      up = [| infinity; infinity; infinity |];
    }
  in
  check_optimal "fallback solve" 2. (warm_outcome basis bigger)

let test_fba_with_basis_matches_cold () =
  let g = Fba.Geobacter.build () in
  let cold = Fba.Analysis.fba ~t:g.Fba.Geobacter.net ~objective:g.Fba.Geobacter.ep in
  let sol1, basis = Fba.Analysis.fba_with_basis ~t:g.Fba.Geobacter.net ~objective:g.Fba.Geobacter.ep () in
  Alcotest.(check (float 1e-9)) "basis variant = cold" cold.Fba.Analysis.objective
    sol1.Fba.Analysis.objective;
  match basis with
  | None -> Alcotest.fail "expected a transferable basis"
  | Some basis ->
    let sol2, _ =
      Fba.Analysis.fba_with_basis ~basis ~t:g.Fba.Geobacter.net ~objective:g.Fba.Geobacter.ep ()
    in
    Alcotest.(check (float 1e-9)) "warm = cold" cold.Fba.Analysis.objective
      sol2.Fba.Analysis.objective

(* {1 ODE deadlines} *)

let test_deadline_raises_and_guard_absorbs () =
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let natural = Array.make Photo.Enzyme.count 1. in
  let expired = Obs.Clock.now_ns () - 1 in
  (* An expired deadline aborts the leaf relaxation... *)
  (match Photo.Steady_state.evaluate ~deadline:expired ~env ~ratios:natural () with
  | _ -> Alcotest.fail "expired deadline did not abort the leaf evaluation"
  | exception Numerics.Ode.Deadline _ -> ());
  (* ...and a guard turns it into a finite penalty, the watchdog story. *)
  let guard = Runtime.Guard.create ~penalty:1e9 () in
  let out =
    Runtime.Guard.wrap guard ~n_obj:2
      (fun ratios ->
        let r = Photo.Steady_state.evaluate ~deadline:expired ~env ~ratios () in
        [| -.r.Photo.Steady_state.uptake; r.Photo.Steady_state.nitrogen |])
      natural
  in
  Alcotest.(check (array (float 0.))) "penalized" [| 1e9; 1e9 |] out;
  Alcotest.(check int) "guard counted the abort" 1 (Runtime.Guard.stats guard).Runtime.Guard.exceptions;
  (* A generous deadline changes nothing. *)
  let generous = Obs.Clock.now_ns () + 60_000_000_000 in
  let timed = Photo.Steady_state.evaluate ~deadline:generous ~env ~ratios:natural () in
  let free = Photo.Steady_state.evaluate ~env ~ratios:natural () in
  Alcotest.(check bool) "generous deadline converges" true timed.Photo.Steady_state.converged;
  Alcotest.(check bool) "same uptake as without a deadline" true
    (Float.equal free.Photo.Steady_state.uptake timed.Photo.Steady_state.uptake)

let () =
  Alcotest.run "cache"
    [
      ( "fnv",
        [
          Alcotest.test_case "hash and equality" `Quick test_fnv_hash_and_equal;
        ] );
      ( "memo",
        [
          Alcotest.test_case "lru eviction" `Quick test_memo_lru_eviction;
          Alcotest.test_case "replace refreshes" `Quick test_memo_replace_refreshes;
          Alcotest.test_case "wrong hash only misses" `Quick test_memo_wrong_hash_misses;
        ] );
      ( "batch",
        [
          Alcotest.test_case "dedups within batch" `Quick test_batch_dedups_within_batch;
          Alcotest.test_case "memo across batches" `Quick test_batch_memo_across_batches;
        ] );
      ( "archipelago",
        [
          Alcotest.test_case "fronts bit-identical, 1/2/4 domains" `Slow
            test_cache_fronts_bit_identical;
          Alcotest.test_case "kill and resume with cache" `Slow test_kill_and_resume_with_cache;
          Alcotest.test_case "cache_size validation" `Quick test_cache_size_validation;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basis round trip" `Quick test_simplex_basis_round_trip;
          Alcotest.test_case "bad basis falls back" `Quick test_simplex_bad_basis_falls_back;
          Alcotest.test_case "fba warm = cold" `Quick test_fba_with_basis_matches_cold;
        ] );
      ( "ode",
        [
          Alcotest.test_case "deadline + guard" `Quick test_deadline_raises_and_guard_absorbs;
        ] );
    ]
