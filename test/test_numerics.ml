(* Unit and property tests for the numerics substrate. *)

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let check_float ?(tol = 1e-9) msg expected actual =
  if not (feq ~tol expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* {1 Rng} *)

let test_rng_determinism () =
  let a = Numerics.Rng.create 7 and b = Numerics.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Numerics.Rng.bits64 a) (Numerics.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Numerics.Rng.create 1 and b = Numerics.Rng.create 2 in
  Alcotest.(check bool) "different streams" false
    (Numerics.Rng.bits64 a = Numerics.Rng.bits64 b)

let test_rng_float_range () =
  let r = Numerics.Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Numerics.Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of [0,1): %g" x
  done

let test_rng_uniform_bounds () =
  let r = Numerics.Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Numerics.Rng.uniform r (-3.) 5. in
    if x < -3. || x >= 5. then Alcotest.failf "uniform out of range: %g" x
  done

let test_rng_uniform_mean () =
  let r = Numerics.Rng.create 5 in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Numerics.Rng.uniform r 0. 10.
  done;
  check_float ~tol:0.1 "mean of U(0,10)" 5.0 (!acc /. float_of_int n)

let test_rng_int_range () =
  let r = Numerics.Rng.create 6 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let k = Numerics.Rng.int r 7 in
    if k < 0 || k >= 7 then Alcotest.failf "int out of range: %d" k;
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      if c < 8_000 || c > 12_000 then Alcotest.failf "bucket %d skewed: %d" k c)
    counts

let test_rng_gaussian_moments () =
  let r = Numerics.Rng.create 8 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> 2. +. Numerics.Rng.gaussian ~sigma:3. r) in
  check_float ~tol:0.05 "gaussian mean" 2.0 (Numerics.Stats.mean xs);
  check_float ~tol:0.1 "gaussian sd" 3.0 (Testkit.Stats.stddev xs)

let test_rng_split_independence () =
  let master = Numerics.Rng.create 9 in
  let a = Numerics.Rng.split master in
  let b = Numerics.Rng.split master in
  (* The two split streams should differ from each other. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Numerics.Rng.bits64 a = Numerics.Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "split streams differ" 0 !same

let test_rng_shuffle_permutation () =
  let r = Numerics.Rng.create 10 in
  let a = Array.init 50 (fun i -> i) in
  Numerics.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_indices () =
  let r = Numerics.Rng.create 11 in
  for _ = 1 to 100 do
    let s = Numerics.Rng.sample_indices r ~n:20 ~k:8 in
    Alcotest.(check int) "k samples" 8 (Array.length s);
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun i ->
        if i < 0 || i >= 20 then Alcotest.failf "index out of range: %d" i;
        if Hashtbl.mem seen i then Alcotest.fail "duplicate index";
        Hashtbl.add seen i ())
      s
  done

let test_rng_bernoulli_bias () =
  let r = Numerics.Rng.create 12 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Numerics.Rng.bernoulli r 0.3 then incr hits
  done;
  check_float ~tol:0.01 "bernoulli(0.3)" 0.3 (float_of_int !hits /. float_of_int n)

(* {1 Vec} *)

let test_vec_arith () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  Alcotest.(check bool) "add" true (Testkit.Vec.approx_equal (Testkit.Vec.add x y) [| 5.; 7.; 9. |]);
  Alcotest.(check bool) "sub" true (Testkit.Vec.approx_equal (Testkit.Vec.sub y x) [| 3.; 3.; 3. |]);
  Alcotest.(check bool) "mul" true (Testkit.Vec.approx_equal (Testkit.Vec.mul x y) [| 4.; 10.; 18. |]);
  Alcotest.(check bool) "scale" true (Testkit.Vec.approx_equal (Testkit.Vec.scale 2. x) [| 2.; 4.; 6. |])

let test_vec_dot_norms () =
  let x = [| 3.; 4. |] in
  check_float "dot" 25. (Testkit.Vec.dot x x);
  check_float "norm2" 5. (Numerics.Vec.norm2 x);
  check_float "norm1" 7. (Testkit.Vec.norm1 x);
  check_float "norm_inf" 4. (Testkit.Vec.norm_inf x);
  check_float "dist2" 5. (Numerics.Vec.dist2 x [| 0.; 0. |])

let test_vec_axpy () =
  let x = [| 1.; 1. |] and y = [| 1.; 2. |] in
  Testkit.Vec.axpy 3. x y;
  Alcotest.(check bool) "axpy" true (Testkit.Vec.approx_equal y [| 4.; 5. |])

let test_vec_clamp_lerp () =
  let lo = [| 0.; 0. |] and hi = [| 1.; 1. |] in
  Alcotest.(check bool) "clamp" true
    (Testkit.Vec.approx_equal (Testkit.Vec.clamp ~lo ~hi [| -1.; 2. |]) [| 0.; 1. |]);
  Alcotest.(check bool) "lerp mid" true
    (Testkit.Vec.approx_equal (Testkit.Vec.lerp [| 0.; 0. |] [| 2.; 4. |] 0.5) [| 1.; 2. |])

let test_vec_stats () =
  let x = [| 1.; 2.; 3.; 4. |] in
  check_float "sum" 10. (Testkit.Vec.sum x);
  check_float "mean" 2.5 (Testkit.Vec.mean x);
  check_float "min" 1. (Testkit.Vec.min x);
  check_float "max" 4. (Testkit.Vec.max x)

(* {1 Matrix} *)

let test_matrix_identity () =
  let i3 = Testkit.Matrix.identity 3 in
  let x = [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "I x = x" true (Testkit.Vec.approx_equal (Testkit.Matrix.mv i3 x) x)

let test_matrix_matmul () =
  let a = Testkit.Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Testkit.Matrix.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Testkit.Matrix.matmul a b in
  let expected = Testkit.Matrix.of_arrays [| [| 19.; 22. |]; [| 43.; 50. |] |] in
  Alcotest.(check bool) "matmul" true (Testkit.Matrix.approx_equal c expected)

let test_matrix_transpose () =
  let a = Testkit.Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Testkit.Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Testkit.Matrix.rows t);
  Alcotest.(check int) "cols" 2 (Testkit.Matrix.cols t);
  check_float "t(0,1)" 4. (Testkit.Matrix.get t 0 1);
  Alcotest.(check bool) "double transpose" true
    (Testkit.Matrix.approx_equal a (Testkit.Matrix.transpose t))

let test_matrix_mv_tmv () =
  let a = Testkit.Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let x = [| 1.; 1. |] in
  Alcotest.(check bool) "mv" true
    (Testkit.Vec.approx_equal (Testkit.Matrix.mv a x) [| 3.; 7.; 11. |]);
  let y = [| 1.; 1.; 1. |] in
  Alcotest.(check bool) "tmv" true
    (Testkit.Vec.approx_equal (Testkit.Matrix.tmv a y) [| 9.; 12. |])

let test_matrix_rows_ops () =
  let a = Testkit.Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Testkit.Matrix.swap_rows a 0 1;
  Alcotest.(check bool) "swap" true
    (Testkit.Vec.approx_equal (Testkit.Matrix.row a 0) [| 3.; 4. |]);
  Testkit.Matrix.set_row a 0 [| 9.; 9. |];
  check_float "set_row" 9. (Testkit.Matrix.get a 0 1)

let test_matrix_norms () =
  let a = Testkit.Matrix.of_arrays [| [| 3.; 4. |]; [| 0.; 0. |] |] in
  check_float "frobenius" 5. (Testkit.Matrix.norm_frobenius a);
  check_float "inf norm" 7. (Testkit.Matrix.norm_inf a)

(* {1 Lu} *)

let random_system rng n =
  let a =
    Testkit.Matrix.init n n (fun _ _ -> Numerics.Rng.uniform rng (-5.) 5.)
  in
  (* Diagonal dominance guarantees a well-conditioned system. *)
  for i = 0 to n - 1 do
    Testkit.Matrix.set a i i (Testkit.Matrix.get a i i +. 10.)
  done;
  let x = Array.init n (fun _ -> Numerics.Rng.uniform rng (-2.) 2.) in
  (a, x)

let test_lu_solve () =
  let rng = Numerics.Rng.create 21 in
  for n = 1 to 12 do
    let a, x = random_system rng n in
    let b = Testkit.Matrix.mv a x in
    let solved = Testkit.Lu.solve (Testkit.Lu.factor a) b in
    Alcotest.(check bool)
      (Printf.sprintf "solve n=%d" n)
      true
      (Testkit.Vec.approx_equal ~tol:1e-8 x solved)
  done

let test_lu_singular () =
  let a = Testkit.Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Numerics.Lu.Singular (fun () ->
      ignore (Testkit.Lu.factor a))

(* {1 Ode} *)

let test_dopri5_harmonic () =
  (* y'' = -y as a system; energy must be conserved over 10 periods. *)
  let f _t y dy =
    dy.(0) <- y.(1);
    dy.(1) <- -.y.(0)
  in
  let t1 = 20. *. Float.pi in
  let r = Numerics.Ode.dopri5 ~rtol:1e-9 ~atol:1e-12 ~f ~t0:0. ~y0:[| 1.; 0. |] ~t1 () in
  check_float ~tol:1e-5 "cos back to 1" 1. r.Numerics.Ode.y.(0);
  check_float ~tol:1e-5 "sin back to 0" 0. r.Numerics.Ode.y.(1)

let test_dopri5_adapts () =
  let f _t y dy = dy.(0) <- -.y.(0) in
  let r = Numerics.Ode.dopri5 ~f ~t0:0. ~y0:[| 1. |] ~t1:5. () in
  Alcotest.(check bool) "takes steps" true (r.Numerics.Ode.stats.steps > 5);
  check_float ~tol:1e-4 "value" (exp (-5.)) r.Numerics.Ode.y.(0)

(* First-same-as-last: an accepted step's seventh stage is the next
   step's first, so every attempt costs six rhs calls plus one per
   integration. *)
let check_fsal_evals name (r : Numerics.Ode.result) =
  let s = r.Numerics.Ode.stats in
  Alcotest.(check bool) (name ^ ": takes steps") true (s.steps > 5);
  Alcotest.(check int) (name ^ ": evals = 6 attempts + 1")
    ((6 * (s.steps + s.rejected)) + 1)
    s.evals

let test_dopri5_fsal_evals () =
  let decay _t y dy = dy.(0) <- -.y.(0) in
  check_fsal_evals "decay" (Numerics.Ode.dopri5 ~f:decay ~t0:0. ~y0:[| 1. |] ~t1:5. ());
  let harmonic _t y dy =
    dy.(0) <- y.(1);
    dy.(1) <- -.y.(0)
  in
  check_fsal_evals "harmonic"
    (Numerics.Ode.dopri5 ~rtol:1e-9 ~atol:1e-12 ~f:harmonic ~t0:0. ~y0:[| 1.; 0. |]
       ~t1:(20. *. Float.pi) ())

(* The step loop writes into buffers allocated once per call: on a
   24-dimensional linear system the whole integration, per-call buffers
   included, stays within 32 minor words per attempted step. *)
let test_dopri5_allocation () =
  let n = 24 in
  let rates = Array.init n (fun i -> 0.05 *. float_of_int (i + 1)) in
  let f _t y dy =
    for i = 0 to n - 1 do
      dy.(i) <- (-.rates.(i) *. y.(i)) +. (0.01 *. y.((i + 1) mod n))
    done
  in
  let y0 = Array.make n 1. in
  let before = Gc.minor_words () in
  let r = Numerics.Ode.dopri5 ~rtol:1e-9 ~atol:1e-12 ~f ~t0:0. ~y0 ~t1:20. () in
  let words = Gc.minor_words () -. before in
  let attempts = r.Numerics.Ode.stats.steps + r.Numerics.Ode.stats.rejected in
  Alcotest.(check bool) (Printf.sprintf "%d attempts" attempts) true (attempts >= 100);
  let per_step = words /. float_of_int attempts in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per attempted step <= 32" per_step) true
    (per_step <= 32.)

(* Counters are added once per integration, on every exit: a run that
   exhausts its step budget still reports the attempts it made.  Stable
   steps on this problem are ~3e-6 long, so a 100-unit horizon needs
   far more than the 1 000 000 attempts the budget allows. *)
let test_dopri5_counts_on_underflow () =
  let steps = Obs.Metrics.counter "ode.steps" and rejected = Obs.Metrics.counter "ode.rejected"
  and evals = Obs.Metrics.counter "ode.rhs_evals"
  and underflows = Obs.Metrics.counter "ode.underflows" in
  let stiff t y dy = dy.(0) <- 1e6 *. (cos t -. y.(0)) in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let raised =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled false)
      (fun () ->
        match Numerics.Ode.dopri5 ~f:stiff ~t0:0. ~t1:100. ~y0:[| 0. |] () with
        | _ -> false
        | exception Numerics.Ode.Step_underflow _ -> true)
  in
  let v = Obs.Metrics.counter_value in
  let attempts = v steps + v rejected in
  Alcotest.(check bool) "underflowed" true raised;
  Alcotest.(check int) "one underflow" 1 (v underflows);
  Alcotest.(check int) "every attempt counted" 1_000_001 attempts;
  Alcotest.(check int) "evals = 6 attempts + 1" ((6 * attempts) + 1) (v evals);
  Obs.Metrics.reset ()

(* y' = 1 from y = 1, with an rhs that turns NaN once y > 1.5.  The
   first step (0.1) is accepted; the second reaches past 1.5, so its
   error estimate and then its next step are NaN, and that step must
   underflow at once instead of being rejected until [max_steps]. *)
let test_dopri5_nan_step_underflows () =
  let steps = Obs.Metrics.counter "ode.steps" and rejected = Obs.Metrics.counter "ode.rejected" in
  let f _t y dy = dy.(0) <- (if y.(0) > 1.5 then Float.nan else 1.) in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let raised =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled false)
      (fun () ->
        match Numerics.Ode.dopri5 ~f ~t0:0. ~t1:10. ~y0:[| 1. |] () with
        | _ -> false
        | exception Numerics.Ode.Step_underflow _ -> true)
  in
  let attempts = Obs.Metrics.counter_value steps + Obs.Metrics.counter_value rejected in
  Obs.Metrics.reset ();
  Alcotest.(check bool) "underflowed" true raised;
  Alcotest.(check bool) (Printf.sprintf "%d attempts <= 10" attempts) true (attempts <= 10)

let test_numeric_jacobian () =
  (* f(y) = A y has Jacobian A. *)
  let a = Testkit.Matrix.of_arrays [| [| 1.; 2. |]; [| -3.; 0.5 |] |] in
  let f _t y dy = Array.blit (Testkit.Matrix.mv a y) 0 dy 0 2 in
  let jac = Numerics.Ode.numeric_jacobian ~pattern:(Testkit.Ode.dense_pattern 2) f 0. [| 0.3; -0.7 |] in
  Alcotest.(check bool) "jacobian of linear map" true
    (Testkit.Matrix.approx_equal ~tol:1e-5 a (Testkit.Matrix.of_numerics ~n:2 jac))

(* {2 Pseudo-transient continuation} *)

(* A stable 24-dimensional linear system y' = b − A·y, written in place:
   A is diagonal plus a cyclic coupling, so the root is unique and
   attracting. *)
let linear_sink n =
  let rates = Array.init n (fun i -> 0.05 *. float_of_int (i + 1)) in
  fun _t y dy ->
    for i = 0 to n - 1 do
      dy.(i) <- 1. -. (rates.(i) *. y.(i)) +. (0.01 *. y.((i + 1) mod n))
    done

let test_ptc_bounded_root () =
  (* y₀' = 1 runs away while y₁' = −y₁ settles.  The relative residual
     ‖f‖∞/(‖y‖∞+1) = 1/(y₀+1) still falls below 1e-10 once y₀ passes
     1e10, which PTC's doubling pseudo-time reaches in a few dozen
     iterations; only the absolute test keeps that from counting as a
     root. *)
  let runaway _t y dy =
    dy.(0) <- 1.;
    dy.(1) <- -.y.(1)
  in
  let pattern = Testkit.Ode.dense_pattern 2 in
  let p = Numerics.Ode.pseudo_transient ~pattern ~f:runaway ~y0:[| 0.; 1. |] () in
  Alcotest.(check bool) "no root" true (Option.is_none p.Numerics.Ode.root);
  (* The same iteration does find a bounded root. *)
  let settle _t y dy =
    dy.(0) <- 2. -. y.(0);
    dy.(1) <- -.y.(1)
  in
  match (Numerics.Ode.pseudo_transient ~pattern ~f:settle ~y0:[| 0.; 1. |] ()).Numerics.Ode.root with
  | Some y ->
    check_float ~tol:1e-9 "y0 -> 2" 2. y.(0);
    check_float ~tol:1e-9 "y1 -> 0" 0. y.(1)
  | None -> Alcotest.fail "bounded root not found"

(* A 24-state linear system y' = A·(y − 2) whose pattern has the leaf's
   strongly connected components: states 0–18 in one cycle, {19, 20, 21,
   23} in a second and 22 alone.  Couplings 0 → 19 and 22 → 23 feed the
   second from both others, so the blocks, taken in the order of their
   least state, are not in topological order, and the second block's
   rows hold a nonzero entry in column 22, inside its index range.
   [block] is A over (19, 20, 21, 23) and [last] is A₂₂,₂₂.  Returns the
   pattern read off A and the rhs. *)
let reducible ~block ~last =
  let n = 24 and b = [| 19; 20; 21; 23 |] in
  let entries =
    List.concat
      [
        List.init 19 (fun i -> (i, i, -0.1 -. (0.05 *. float_of_int i)));
        List.init 19 (fun i -> (i, (i + 1) mod 19, 0.01));
        [ (19, 0, 0.1); (23, 22, 0.5); (22, 22, last) ];
        List.concat
          (List.init 4 (fun r ->
               List.filter_map
                 (fun c ->
                   let x = block.(r).(c) in
                   if Float.equal x 0. then None else Some (b.(r), b.(c), x))
                 (List.init 4 Fun.id)));
      ]
  in
  let rows =
    Array.init n (fun j ->
        Array.of_list (List.filter_map (fun (i, j', _) -> if j' = j then Some i else None) entries))
  in
  let ei = Array.of_list (List.map (fun (i, _, _) -> i) entries)
  and ej = Array.of_list (List.map (fun (_, j, _) -> j) entries)
  and ex = Array.of_list (List.map (fun (_, _, x) -> x) entries) in
  let f _t y dy =
    Array.fill dy 0 n 0.;
    for k = 0 to Array.length ex - 1 do
      dy.(ei.(k)) <- dy.(ei.(k)) +. (ex.(k) *. (y.(ej.(k)) -. 2.))
    done
  in
  (Numerics.Ode.pattern rows, f)

(* The second component's A: a cycle 19 → 20 → 21 → 23 → 19 whose
   entries off the leading 2×2 and the diagonal are small, so its
   eigenvalues are those of [lead], −2 and [d23] (state 23's, the one
   out of index order), to within 1e-6. *)
let second_block ?(d23 = -3.) lead =
  [|
    [| lead.(0).(0); lead.(0).(1); 0.; 0.01 |];
    [| lead.(1).(0); lead.(1).(1); 0.; 0. |];
    [| 0.; 0.01; -2.; 0. |];
    [| 0.; 0.; 0.01; d23 |];
  |]

let stable_lead = [| [| -1.; -1. |]; [| 1.; -1. |] |]
let stable_second = second_block stable_lead

(* The Jacobian, LU and scratch buffers are allocated once per call: on
   24-dimensional linear systems the whole call, per-call buffers
   included, stays within 64 minor words per iteration.  Under the dense
   pattern the certificate is one block; under [reducible]'s it swaps
   rows and compacts blocks. *)
let test_ptc_allocation () =
  let n = 24 in
  List.iter
    (fun (name, (pattern, f)) ->
      let y0 = Array.make n 0.5 in
      let before = Gc.minor_words () in
      let p = Numerics.Ode.pseudo_transient ~pattern ~f ~y0 () in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) (name ^ ": converged") true (Option.is_some p.Numerics.Ode.root);
      let it = p.Numerics.Ode.iterations in
      Alcotest.(check bool) (Printf.sprintf "%s: %d iterations" name it) true (it >= 5);
      let per_iteration = words /. float_of_int it in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per iteration <= 64" name per_iteration)
        true (per_iteration <= 64.))
    [
      ("dense", (Testkit.Ode.dense_pattern n, linear_sink n));
      ("reducible", reducible ~block:stable_second ~last:(-1.));
    ]

let test_ptc_deadline () =
  let f = linear_sink 24 in
  let expired = Obs.Clock.now_ns () - 1 in
  let pattern = Testkit.Ode.dense_pattern 24 in
  match Numerics.Ode.pseudo_transient ~deadline:expired ~pattern ~f ~y0:(Array.make 24 0.5) () with
  | _ -> Alcotest.fail "expired deadline ignored"
  | exception Numerics.Ode.Deadline _ -> ()

let test_steady_state_timeout () =
  (* A seeded leaf design on which pseudo-transient continuation finds no
     root from the natural state, nor from the end of the one 20-unit
     window that follows: the restart is counted, one window and two PTC
     solves run, the report says unconverged, and the design problem
     scores it zero uptake.  Its trajectory runs away (glycine passes
     150 mM by t = 3 000). *)
  let env = Photo.Params.present ~tp_export:Photo.Params.low_export in
  let rng = Numerics.Rng.create 28 in
  let ratios =
    Array.init Photo.Enzyme.count (fun _ ->
        Numerics.Rng.uniform rng Photo.Leaf.ratio_min Photo.Leaf.ratio_max)
  in
  (* The design problem relaxes every candidate from the natural leaf's
     steady state; so does this evaluation. *)
  let y0 = (Photo.Steady_state.natural env).Photo.Steady_state.y in
  let counter = Obs.Metrics.counter in
  let windows = counter "ode.integrations" and ptc_calls = counter "ode.ptc.calls"
  and restarts = counter "photo.ptc_fallbacks" and unstable = counter "ode.ptc.unstable" in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled false)
      (fun () -> Photo.Steady_state.evaluate ~y0 ~env ~ratios ())
  in
  Alcotest.(check (list int)) "windows, PTC calls, restarts, unstable roots" [ 1; 2; 1; 0 ]
    (List.map Obs.Metrics.counter_value [ windows; ptc_calls; restarts; unstable ]);
  Obs.Metrics.reset ();
  Alcotest.(check bool) "not converged" false r.Photo.Steady_state.converged;
  let s = Moo.Solution.evaluate (Photo.Leaf.problem env) ratios in
  check_float ~tol:0. "scored zero uptake" 0. (Photo.Leaf.uptake_of s)

(* The certificate: PTC converges on each of these systems from a start
   near its root, and returns the root only when every eigenvalue of the
   root's Jacobian has a negative real part.  A saddle (+3, −1) and an
   unstable focus (0.1 ± i) are rejected and each counted once in
   [ode.ptc.unstable]; a stable node (−1, −2) is returned.  So are their
   24-state counterparts under a pattern of three components, with the
   unstable mode confined to a block other than the first: +3 on state
   23 or 0.1 ± i in the second, +3 in the third, of one state.  A stable
   24-state system started at its root, whose Jacobian there has one
   infinite entry outside the diagonal blocks (f₁₉ turns infinite once
   y₀ > 2), is rejected too. *)
let test_ptc_certificate () =
  let unstable = Obs.Metrics.counter "ode.ptc.unstable" in
  let solve (pattern, f) y0 =
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    let p =
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled false)
        (fun () -> Numerics.Ode.pseudo_transient ~pattern ~f ~y0 ())
    in
    let n = Obs.Metrics.counter_value unstable in
    Obs.Metrics.reset ();
    (p, n)
  in
  let planar f = (Testkit.Ode.dense_pattern 2, f) in
  let saddle _t y dy =
    dy.(0) <- 3. *. (y.(0) -. 1.);
    dy.(1) <- 1. -. y.(1)
  in
  let focus _t y dy =
    let u = y.(0) -. 2. and v = y.(1) -. 2. in
    dy.(0) <- (0.1 *. u) -. v;
    dy.(1) <- u +. (0.1 *. v)
  in
  let node _t y dy =
    dy.(0) <- 1. -. y.(0);
    dy.(1) <- 2. *. (3. -. y.(1))
  in
  let near = Array.init 24 (fun i -> if i mod 2 = 0 then 2.1 else 1.9) in
  let off_block_infinite =
    let pattern, f = reducible ~block:stable_second ~last:(-1.) in
    ( pattern,
      fun t y dy ->
        f t y dy;
        if y.(0) > 2. then dy.(19) <- Float.infinity )
  in
  List.iter
    (fun (name, system, y0) ->
      let p, n = solve system y0 in
      Alcotest.(check bool) (name ^ ": no root") true (Option.is_none p.Numerics.Ode.root);
      Alcotest.(check int) (name ^ ": one unstable root") 1 n)
    [
      ("saddle", planar saddle, [| 1.2; 0.5 |]);
      ("focus", planar focus, [| 2.3; 1.8 |]);
      ("second block +3", reducible ~block:(second_block ~d23:3. stable_lead) ~last:(-1.), near);
      ( "second block 0.1 ± i",
        reducible ~block:(second_block [| [| 0.1; -1. |]; [| 1.; 0.1 |] |]) ~last:(-1.),
        near );
      ("third block +3", reducible ~block:stable_second ~last:3., near);
      ("infinite entry off the blocks", off_block_infinite, Array.make 24 2.);
    ];
  (match solve (planar node) [| 0.5; 2.5 |] with
  | { Numerics.Ode.root = Some y; _ }, 0 ->
    check_float ~tol:1e-9 "node y0" 1. y.(0);
    check_float ~tol:1e-9 "node y1" 3. y.(1)
  | _ -> Alcotest.fail "stable node not certified");
  match solve (reducible ~block:stable_second ~last:(-1.)) near with
  | { Numerics.Ode.root = Some y; _ }, 0 ->
    Array.iteri (fun i yi -> check_float ~tol:1e-9 (Printf.sprintf "reducible y%d" i) 2. yi) y
  | _ -> Alcotest.fail "stable reducible system not certified"

(* {1 Eigenvalues} *)

(* A = S·D·S⁻¹ for a block-diagonal D of real eigenvalues and 2×2
   blocks [a b; −b a] (eigenvalues a ± ib).  S = P·Q scales the rows of
   an orthogonal Q (three Householder reflections) by powers of two in
   [1/8, 8], so A is not normal, S⁻¹ = Qᵀ·P⁻¹ to rounding and κ(S) ≤ 64.
   Returns A row-major and the spectrum. *)
let known_spectrum rng n =
  let d = Testkit.Matrix.zeros n n and spectrum = ref [] and i = ref 0 in
  while !i < n do
    let re = Numerics.Rng.uniform rng (-5.) 5. in
    if !i + 1 < n && Numerics.Rng.bernoulli rng 0.5 then begin
      let im = Numerics.Rng.uniform rng 0.1 5. in
      Testkit.Matrix.set d !i !i re;
      Testkit.Matrix.set d (!i + 1) (!i + 1) re;
      Testkit.Matrix.set d !i (!i + 1) im;
      Testkit.Matrix.set d (!i + 1) !i (-.im);
      spectrum := (re, im) :: (re, -.im) :: !spectrum;
      i := !i + 2
    end
    else begin
      Testkit.Matrix.set d !i !i re;
      spectrum := (re, 0.) :: !spectrum;
      incr i
    end
  done;
  let q =
    List.fold_left
      (fun q _ ->
        let v = Array.init n (fun _ -> Numerics.Rng.uniform rng (-1.) 1.) in
        let vv = Testkit.Vec.dot v v in
        let h =
          Testkit.Matrix.init n n (fun r c ->
              (if r = c then 1. else 0.) -. (2. *. v.(r) *. v.(c) /. vv))
        in
        Testkit.Matrix.matmul q h)
      (Testkit.Matrix.identity n) [ 1; 2; 3 ]
  in
  let scale = Array.init n (fun _ -> Float.ldexp 1. (Numerics.Rng.int rng 7 - 3)) in
  let s = Testkit.Matrix.init n n (fun r c -> scale.(r) *. Testkit.Matrix.get q r c) in
  let s_inv = Testkit.Matrix.init n n (fun r c -> Testkit.Matrix.get q c r /. scale.(c)) in
  let a = Testkit.Matrix.matmul (Testkit.Matrix.matmul s d) s_inv in
  (Array.init (n * n) (fun k -> Testkit.Matrix.get a (k / n) (k mod n)), !spectrum)

let eigenvalues n a =
  let wr = Array.make n 0. and wi = Array.make n 0. in
  if not (Numerics.Eigen.eigenvalues_in_place ~n a wr wi) then Alcotest.fail "QR did not converge";
  Array.to_list (Array.map2 (fun r i -> (r, i)) wr wi)

(* Largest distance from a known eigenvalue to its computed match, each
   computed eigenvalue matched at most once. *)
let spectrum_error expected computed =
  let left = ref computed in
  List.fold_left
    (fun worst (re, im) ->
      let dist (r, i) = Float.hypot (r -. re) (i -. im) in
      match List.sort (fun a b -> Float.compare (dist a) (dist b)) !left with
      | best :: rest ->
        left := rest;
        Float.max worst (dist best)
      | [] -> Alcotest.fail "fewer eigenvalues than the order")
    0. expected

let test_eigen_known_spectra () =
  let rng = Numerics.Rng.create 2026 in
  for trial = 1 to 200 do
    let n = if trial <= 20 then trial else 24 in
    let a, spectrum = known_spectrum rng n in
    let err = spectrum_error spectrum (eigenvalues n a) in
    if err > 1e-9 then Alcotest.failf "trial %d (n = %d): eigenvalue error %g" trial n err
  done;
  (* A triangular matrix deflates at once, to its diagonal exactly; a
     rotation's pair is ±i exactly. *)
  let tri = [| 3.; 1.; -2.; 0.; -0.5; 4.; 0.; 0.; 7. |] in
  List.iter2
    (fun (r, i) d ->
      if not (Float.equal r d && Float.equal i 0.) then
        Alcotest.failf "triangular: %g%+gi for diagonal %g" r i d)
    (List.sort compare (eigenvalues 3 tri))
    [ -0.5; 3.; 7. ];
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "rotation" [ (0., -1.); (0., 1.) ]
    (List.sort compare (eigenvalues 2 [| 0.; 1.; -1.; 0. |]));
  let nan_entry = [| 1.; Float.nan; 0.; 1. |] in
  Alcotest.(check bool) "non-finite entry refused" false
    (Numerics.Eigen.eigenvalues_in_place ~n:2 nan_entry (Array.make 2 0.) (Array.make 2 0.))

(* {1 Stats} *)

let test_stats_basic () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Numerics.Stats.mean xs);
  check_float ~tol:1e-9 "variance" (32. /. 7.) (Testkit.Stats.variance xs);
  check_float "min" 2. (Testkit.Stats.minimum xs);
  check_float "max" 9. (Testkit.Stats.maximum xs)

let test_stats_median_quantile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "median" 2.5 (Numerics.Stats.median xs);
  check_float "q0" 1. (Numerics.Stats.quantile xs 0.);
  check_float "q1" 4. (Numerics.Stats.quantile xs 1.);
  check_float "q25" 1.75 (Numerics.Stats.quantile xs 0.25)

let test_stats_summary () =
  let s = Testkit.Stats.summarize [| 1.; 2.; 3. |] in
  Alcotest.(check int) "n" 3 s.Testkit.Stats.n;
  check_float "mean" 2. s.Testkit.Stats.mean;
  check_float "median" 2. s.Testkit.Stats.median

let test_stats_histogram () =
  let h = Testkit.Stats.histogram ~bins:2 [| 0.; 0.1; 0.9; 1.0 |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 4 total

let test_stats_pearson () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  check_float ~tol:1e-12 "perfect correlation" 1. (Testkit.Stats.pearson xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_float ~tol:1e-12 "anti correlation" (-1.) (Testkit.Stats.pearson xs zs)

(* {1 Properties} *)

let vec_pair =
  QCheck.make
    ~print:(fun (x, y) ->
      Printf.sprintf "(%s, %s)"
        (String.concat ";" (List.map string_of_float (Array.to_list x)))
        (String.concat ";" (List.map string_of_float (Array.to_list y))))
    QCheck.Gen.(
      let n = 1 -- 8 in
      n >>= fun n ->
      let g = array_size (return n) (float_range (-100.) 100.) in
      pair g g)

let prop_dot_symmetric =
  QCheck.Test.make ~name:"dot is symmetric" ~count:200 vec_pair (fun (x, y) ->
      feq ~tol:1e-6 (Testkit.Vec.dot x y) (Testkit.Vec.dot y x))

let prop_triangle_inequality =
  QCheck.Test.make ~name:"norm triangle inequality" ~count:200 vec_pair (fun (x, y) ->
      Numerics.Vec.norm2 (Testkit.Vec.add x y)
      <= Numerics.Vec.norm2 x +. Numerics.Vec.norm2 y +. 1e-9)

let prop_lu_residual =
  QCheck.Test.make ~name:"lu solve has small residual" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let n = 1 + Numerics.Rng.int rng 10 in
      let a, x = random_system rng n in
      let b = Testkit.Matrix.mv a x in
      let solved = Testkit.Lu.solve (Testkit.Lu.factor a) b in
      Numerics.Vec.dist2 x solved <= 1e-6)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in p" ~count:200
    QCheck.(array_of_size (QCheck.Gen.int_range 1 20) (float_range (-50.) 50.))
    (fun xs ->
      let q25 = Numerics.Stats.quantile xs 0.25 in
      let q75 = Numerics.Stats.quantile xs 0.75 in
      q25 <= q75 +. 1e-12)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:100
    QCheck.(pair small_int (array_of_size (QCheck.Gen.int_range 0 30) int))
    (fun (seed, a) ->
      let rng = Numerics.Rng.create seed in
      let b = Array.copy a in
      Numerics.Rng.shuffle rng b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

(* {1 Sparse LU} *)

(* Random sparse nonsingular matrix as columns: a permuted diagonal
   backbone (guarantees structural full rank) plus a few off-diagonal
   entries. *)
let random_sparse_cols rng n =
  let diag_row = Array.init n (fun i -> i) in
  Numerics.Rng.shuffle rng diag_row;
  Array.init n (fun j ->
      let extras =
        List.init (Numerics.Rng.int rng 3) (fun _ ->
            (Numerics.Rng.int rng n, Numerics.Rng.uniform rng (-1.) 1.))
        |> List.filter (fun (i, _) -> i <> diag_row.(j))
        |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
      in
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        ((diag_row.(j), 2. +. Numerics.Rng.uniform rng 0. 2.) :: extras))

let dense_of_cols n cols =
  let d = Testkit.Matrix.zeros n n in
  Array.iteri (fun j col -> List.iter (fun (i, v) -> Testkit.Matrix.set d i j v) col) cols;
  d

(* {1 Sparse Gram} *)

(* C·Cᵀ + ridge·I from compressed columns equals the dense product bit
   for bit: both sum each entry over the columns of C in ascending order. *)
let test_csc_gram_matches_dense () =
  let rng = Numerics.Rng.create 2024 in
  for _ = 1 to 10 do
    let m = 2 + Numerics.Rng.int rng 8 and n = 3 + Numerics.Rng.int rng 12 in
    let s = Numerics.Sparse.create ~rows:m ~cols:n in
    for _ = 1 to (m * n) / 3 do
      Numerics.Sparse.set s (Numerics.Rng.int rng m) (Numerics.Rng.int rng n)
        (Numerics.Rng.uniform rng (-2.) 2.)
    done;
    let ridge = Numerics.Rng.uniform rng 0. 1. in
    let gram = Numerics.Sparse.csc_gram ~ridge (Numerics.Sparse.compress s) in
    Alcotest.(check int) "square" m (Array.length gram);
    let dense = Testkit.Sparse.to_dense ~rows:m ~cols:n s in
    let expected = Testkit.Matrix.matmul dense (Testkit.Matrix.transpose dense) in
    for i = 0 to m - 1 do
      Testkit.Matrix.set expected i i (Testkit.Matrix.get expected i i +. ridge)
    done;
    let got = dense_of_cols m gram in
    Array.iter
      (fun col ->
        let rows = List.map fst col in
        if rows <> List.sort_uniq compare rows then Alcotest.fail "gram column not row-sorted")
      gram;
    for i = 0 to m - 1 do
      for k = 0 to m - 1 do
        let e = Testkit.Matrix.get expected i k and g = Testkit.Matrix.get got i k in
        if not (Float.equal e g) then Alcotest.failf "gram (%d,%d): dense %h, csc %h" i k e g
      done
    done
  done

let test_sparse_lu_solve () =
  let rng = Numerics.Rng.create 4242 in
  for _ = 1 to 25 do
    let n = 2 + Numerics.Rng.int rng 20 in
    let cols = random_sparse_cols rng n in
    let f = Numerics.Sparse_lu.factor cols in
    let dense = dense_of_cols n cols in
    let b = Array.init n (fun _ -> Numerics.Rng.uniform rng (-5.) 5.) in
    let x = Numerics.Sparse_lu.solve f b in
    let r = Testkit.Matrix.mv dense x in
    Array.iteri
      (fun i bi ->
        if Float.abs (r.(i) -. bi) > 1e-8 then
          Alcotest.failf "sparse ftran residual %g at row %d (n=%d)" (r.(i) -. bi) i n)
      b
  done

let test_sparse_lu_solve_t () =
  let rng = Numerics.Rng.create 777 in
  for _ = 1 to 25 do
    let n = 2 + Numerics.Rng.int rng 20 in
    let cols = random_sparse_cols rng n in
    let f = Numerics.Sparse_lu.factor cols in
    let dense = dense_of_cols n cols in
    let c = Array.init n (fun _ -> Numerics.Rng.uniform rng (-5.) 5.) in
    let y = Numerics.Sparse_lu.solve_t f c in
    (* Aᵀ y = c  ⇔  y·A_col_j = c_j *)
    let r = Testkit.Matrix.tmv dense y in
    Array.iteri
      (fun j cj ->
        if Float.abs (r.(j) -. cj) > 1e-8 then
          Alcotest.failf "sparse btran residual %g at col %d (n=%d)" (r.(j) -. cj) j n)
      c
  done

let test_sparse_lu_deterministic () =
  let rng = Numerics.Rng.create 99 in
  let cols = random_sparse_cols rng 15 in
  let b = Array.init 15 (fun i -> float_of_int (i - 7)) in
  let x1 = Numerics.Sparse_lu.solve (Numerics.Sparse_lu.factor cols) b in
  let x2 = Numerics.Sparse_lu.solve (Numerics.Sparse_lu.factor cols) b in
  if x1 <> x2 then Alcotest.fail "same input must factor and solve bit-identically"

(* A solve allocates its result and one work vector and nothing per
   entry: the budget is two float arrays of [n] words plus headers.  At
   n = 200 both arrays are small enough for the minor heap, whose word
   count is exact. *)
let test_sparse_lu_solve_allocation () =
  let n = 200 in
  let rng = Numerics.Rng.create 5150 in
  let f = Numerics.Sparse_lu.factor (random_sparse_cols rng n) in
  let b = Array.init n (fun _ -> Numerics.Rng.uniform rng (-1.) 1.) in
  let words_per_call solve =
    ignore (Sys.opaque_identity (solve f b));
    let calls = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (solve f b))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let budget = float_of_int (2 * (n + 1)) in
  List.iter
    (fun (name, solve) ->
      let words = words_per_call solve in
      if words > budget then
        Alcotest.failf "%s allocates %.1f words per call, budget %.0f" name words budget)
    [ ("solve", Numerics.Sparse_lu.solve); ("solve_t", Numerics.Sparse_lu.solve_t) ]

let test_sparse_lu_singular () =
  (* A column of zeros is rank deficient. *)
  let cols = [| [ (0, 1.) ]; []; [ (2, 1.) ] |] in
  (match Numerics.Sparse_lu.factor cols with
  | exception Numerics.Sparse_lu.Singular -> ()
  | _ -> Alcotest.fail "singular matrix must raise");
  (* Duplicate columns likewise. *)
  let dup = [| [ (0, 1.); (1, 2.) ]; [ (0, 1.); (1, 2.) ]; [ (2, 1.) ] |] in
  match Numerics.Sparse_lu.factor dup with
  | exception Numerics.Sparse_lu.Singular -> ()
  | _ -> Alcotest.fail "duplicate columns must raise"

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "numerics"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform bounds" `Quick test_rng_uniform_bounds;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "int range+balance" `Quick test_rng_int_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample indices" `Quick test_rng_sample_indices;
          Alcotest.test_case "bernoulli bias" `Quick test_rng_bernoulli_bias;
        ] );
      ( "vec",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec_arith;
          Alcotest.test_case "dot and norms" `Quick test_vec_dot_norms;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "clamp and lerp" `Quick test_vec_clamp_lerp;
          Alcotest.test_case "aggregate stats" `Quick test_vec_stats;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity" `Quick test_matrix_identity;
          Alcotest.test_case "matmul" `Quick test_matrix_matmul;
          Alcotest.test_case "transpose" `Quick test_matrix_transpose;
          Alcotest.test_case "mv and tmv" `Quick test_matrix_mv_tmv;
          Alcotest.test_case "row operations" `Quick test_matrix_rows_ops;
          Alcotest.test_case "norms" `Quick test_matrix_norms;
        ] );
      ( "lu",
        [
          Alcotest.test_case "solve random systems" `Quick test_lu_solve;
          Alcotest.test_case "singular raises" `Quick test_lu_singular;
        ] );
      ( "sparse-lu",
        [
          Alcotest.test_case "ftran random systems" `Quick test_sparse_lu_solve;
          Alcotest.test_case "btran random systems" `Quick test_sparse_lu_solve_t;
          Alcotest.test_case "deterministic" `Quick test_sparse_lu_deterministic;
          Alcotest.test_case "singular raises" `Quick test_sparse_lu_singular;
          Alcotest.test_case "solve allocation" `Quick test_sparse_lu_solve_allocation;
          Alcotest.test_case "csc gram = dense matmul" `Quick test_csc_gram_matches_dense;
        ] );
      ( "ode",
        [
          Alcotest.test_case "dopri5 harmonic" `Quick test_dopri5_harmonic;
          Alcotest.test_case "dopri5 adapts" `Quick test_dopri5_adapts;
          Alcotest.test_case "dopri5 fsal evals" `Quick test_dopri5_fsal_evals;
          Alcotest.test_case "dopri5 allocation" `Quick test_dopri5_allocation;
          Alcotest.test_case "dopri5 counts on underflow" `Quick test_dopri5_counts_on_underflow;
          Alcotest.test_case "dopri5 nan step underflows" `Quick test_dopri5_nan_step_underflows;
          Alcotest.test_case "numeric jacobian" `Quick test_numeric_jacobian;
          Alcotest.test_case "steady state timeout" `Quick test_steady_state_timeout;
          Alcotest.test_case "ptc bounded root" `Quick test_ptc_bounded_root;
          Alcotest.test_case "ptc allocation" `Quick test_ptc_allocation;
          Alcotest.test_case "ptc deadline" `Quick test_ptc_deadline;
          Alcotest.test_case "ptc certificate" `Quick test_ptc_certificate;
        ] );
      ("eigen", [ Alcotest.test_case "known spectra" `Quick test_eigen_known_spectra ]);
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "median and quantiles" `Quick test_stats_median_quantile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "pearson" `Quick test_stats_pearson;
        ] );
      ( "properties",
        q
          [
            prop_dot_symmetric;
            prop_triangle_inequality;
            prop_lu_residual;
            prop_quantile_monotone;
            prop_shuffle_preserves_multiset;
          ] );
    ]
