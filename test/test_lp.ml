(* Tests for the bounded-variable simplex and the LP problem builder. *)

let check_float ?(tol = 1e-7) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let solve_expect_optimal p =
  match Testkit.Lp_problem.solve p with
  | Testkit.Lp_problem.Optimal { x; objective } -> (x, objective)
  | Testkit.Lp_problem.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Testkit.Lp_problem.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_basic_max () =
  (* max 3x + 2y, x+y <= 4, x+3y <= 6, x,y >= 0 → (4,0), obj 12. *)
  let p = Testkit.Lp_problem.make ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0. infinity;
  Testkit.Lp_problem.set_bounds p 1 0. infinity;
  Testkit.Lp_problem.set_objective p 0 3.;
  Testkit.Lp_problem.set_objective p 1 2.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Le 4.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 3.) ] Testkit.Lp_problem.Le 6.;
  let rx, robj = solve_expect_optimal p in
  check_float "objective" 12. robj;
  check_float "x" 4. rx.(0);
  check_float "y" 0. rx.(1)

let test_basic_min () =
  (* min x + y, x + 2y >= 3, 3x + y >= 3 → (0.6, 1.2), obj 1.8. *)
  let p = Testkit.Lp_problem.make ~sense:Testkit.Lp_problem.Minimize ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0. infinity;
  Testkit.Lp_problem.set_bounds p 1 0. infinity;
  Testkit.Lp_problem.set_objective p 0 1.;
  Testkit.Lp_problem.set_objective p 1 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 2.) ] Testkit.Lp_problem.Ge 3.;
  Testkit.Lp_problem.add_row p [ (0, 3.); (1, 1.) ] Testkit.Lp_problem.Ge 3.;
  let rx, robj = solve_expect_optimal p in
  check_float "objective" 1.8 robj;
  check_float "x" 0.6 rx.(0);
  check_float "y" 1.2 rx.(1)

let test_equality_negative_bounds () =
  let p = Testkit.Lp_problem.make ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 (-1.) 2.;
  Testkit.Lp_problem.set_bounds p 1 0. 5.;
  Testkit.Lp_problem.set_objective p 0 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Eq 1.;
  let rx, robj = solve_expect_optimal p in
  check_float "x at its best" 1. rx.(0);
  check_float "objective" 1. robj

let test_upper_bounds_bind () =
  (* max x + y with x <= 1.5, y <= 2.5 and x + y <= 10: box binds. *)
  let p = Testkit.Lp_problem.make ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0. 1.5;
  Testkit.Lp_problem.set_bounds p 1 0. 2.5;
  Testkit.Lp_problem.set_objective p 0 1.;
  Testkit.Lp_problem.set_objective p 1 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Le 10.;
  let _rx, robj = solve_expect_optimal p in
  check_float "objective" 4. robj

let test_infeasible () =
  let p = Testkit.Lp_problem.make ~n_vars:1 () in
  Testkit.Lp_problem.set_bounds p 0 0. 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.) ] Testkit.Lp_problem.Eq 5.;
  (match Testkit.Lp_problem.solve p with
   | Testkit.Lp_problem.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  let p = Testkit.Lp_problem.make ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0. infinity;
  Testkit.Lp_problem.set_bounds p 1 0. infinity;
  Testkit.Lp_problem.set_objective p 0 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, -1.) ] Testkit.Lp_problem.Le 1.;
  (match Testkit.Lp_problem.solve p with
   | Testkit.Lp_problem.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded")

let test_free_variable () =
  (* min x with x free and x >= -7 via a Ge row: answer -7. *)
  let p = Testkit.Lp_problem.make ~sense:Testkit.Lp_problem.Minimize ~n_vars:1 () in
  Testkit.Lp_problem.set_objective p 0 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.) ] Testkit.Lp_problem.Ge (-7.);
  let _rx, robj = solve_expect_optimal p in
  check_float "free var floor" (-7.) robj

let test_degenerate () =
  (* Degenerate vertex: several constraints meet at the optimum. *)
  let p = Testkit.Lp_problem.make ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0. infinity;
  Testkit.Lp_problem.set_bounds p 1 0. infinity;
  Testkit.Lp_problem.set_objective p 0 1.;
  Testkit.Lp_problem.set_objective p 1 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.) ] Testkit.Lp_problem.Le 1.;
  Testkit.Lp_problem.add_row p [ (1, 1.) ] Testkit.Lp_problem.Le 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Le 2.;
  let _rx, robj = solve_expect_optimal p in
  check_float "objective" 2. robj

let test_fixed_variable () =
  (* A variable fixed by equal bounds participates correctly. *)
  let p = Testkit.Lp_problem.make ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0.45 0.45;
  Testkit.Lp_problem.set_bounds p 1 0. 10.;
  Testkit.Lp_problem.set_objective p 1 1.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Le 3.;
  let rx, robj = solve_expect_optimal p in
  check_float "fixed var kept" 0.45 rx.(0);
  check_float "objective" 2.55 robj

let test_diet_problem () =
  (* A classic small diet problem with known optimum.
     min 0.6 x1 + 1.0 x2
     s.t. 10 x1 + 4 x2 >= 20 ; 5 x1 + 5 x2 >= 20 ; 2 x1 + 6 x2 >= 12 ; x >= 0
     Optimum at intersection of rows 1 and 2: x1 = 2/3·... solve:
     10x1+4x2=20 & 5x1+5x2=20 → x1 = 2/3, x2 = 10/3, cost 0.4+10/3 ≈ 3.7333
     vs rows 2&3: 5x1+5x2=20 & 2x1+6x2=12 → x1=3, x2=1, cost 2.8. Check
     feasibility of (3,1) in row 1: 34 >= 20 ✓, so optimum is 2.8. *)
  let p = Testkit.Lp_problem.make ~sense:Testkit.Lp_problem.Minimize ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0. infinity;
  Testkit.Lp_problem.set_bounds p 1 0. infinity;
  Testkit.Lp_problem.set_objective p 0 0.6;
  Testkit.Lp_problem.set_objective p 1 1.0;
  Testkit.Lp_problem.add_row p [ (0, 10.); (1, 4.) ] Testkit.Lp_problem.Ge 20.;
  Testkit.Lp_problem.add_row p [ (0, 5.); (1, 5.) ] Testkit.Lp_problem.Ge 20.;
  Testkit.Lp_problem.add_row p [ (0, 2.); (1, 6.) ] Testkit.Lp_problem.Ge 12.;
  let _rx, robj = solve_expect_optimal p in
  check_float ~tol:1e-6 "diet optimum" 2.8 robj

let test_larger_random_consistency () =
  (* Random feasible LPs: the simplex optimum must satisfy all rows and
     bounds, and the objective must match c·x. *)
  let rng = Numerics.Rng.create 77 in
  for _ = 1 to 20 do
    let n = 3 + Numerics.Rng.int rng 5 in
    let m = 2 + Numerics.Rng.int rng 4 in
    let p = Testkit.Lp_problem.make ~n_vars:n () in
    for j = 0 to n - 1 do
      Testkit.Lp_problem.set_bounds p j 0. (1. +. Numerics.Rng.uniform rng 0. 9.);
      Testkit.Lp_problem.set_objective p j (Numerics.Rng.uniform rng (-1.) 2.)
    done;
    let rows = ref [] in
    for _ = 1 to m do
      let coeffs = List.init n (fun j -> (j, Numerics.Rng.uniform rng 0. 1.)) in
      let rhs = 1. +. Numerics.Rng.uniform rng 0. 10. in
      rows := (coeffs, rhs) :: !rows;
      Testkit.Lp_problem.add_row p coeffs Testkit.Lp_problem.Le rhs
    done;
    match Testkit.Lp_problem.solve p with
    | Testkit.Lp_problem.Optimal { x; objective = _ } ->
      (* feasibility of rows *)
      List.iter
        (fun (coeffs, rhs) ->
          let lhs = List.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0. coeffs in
          if lhs > rhs +. 1e-6 then Alcotest.failf "row violated: %g > %g" lhs rhs)
        !rows;
      Array.iteri
        (fun j xj ->
          if j < n && (xj < -1e-9 || xj > 10. +. 1e-6) then
            Alcotest.failf "bound violated: x%d = %g" j xj)
        x
    | Testkit.Lp_problem.Infeasible -> Alcotest.fail "random Le problem must be feasible (0 works)"
    | Testkit.Lp_problem.Unbounded -> Alcotest.fail "bounded box cannot be unbounded"
  done

let prop_simplex_weak_duality =
  (* For max c·x, A x <= b, 0 <= x <= u: any feasible point's objective is
     a lower bound on the optimum. We test with the origin (always
     feasible for b >= 0). *)
  QCheck.Test.make ~name:"optimum beats origin" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let n = 2 + Numerics.Rng.int rng 4 in
      let p = Testkit.Lp_problem.make ~n_vars:n () in
      for j = 0 to n - 1 do
        Testkit.Lp_problem.set_bounds p j 0. 5.;
        Testkit.Lp_problem.set_objective p j (Numerics.Rng.uniform rng 0. 1.)
      done;
      for _ = 1 to 3 do
        let coeffs = List.init n (fun j -> (j, Numerics.Rng.uniform rng 0. 1.)) in
        Testkit.Lp_problem.add_row p coeffs Testkit.Lp_problem.Le (1. +. Numerics.Rng.uniform rng 0. 5.)
      done;
      match Testkit.Lp_problem.solve p with
      | Testkit.Lp_problem.Optimal { objective; _ } -> objective >= -1e-9
      | _ -> false)

(* {1 Optimality certificates} *)

(* Random bounded LP in raw spec form: n structural variables with
   random sparse columns plus one slack per row, so x = 0, s = rhs is
   always feasible and the objective (supported on the bounded
   structurals only) is always bounded. *)
let random_spec rng =
  let n = 3 + Numerics.Rng.int rng 6 in
  let m = 2 + Numerics.Rng.int rng 4 in
  let cols =
    Array.init (n + m) (fun j ->
        if j >= n then [ (j - n, 1.) ]
        else
          List.init m Fun.id
          |> List.filter_map (fun i ->
                 if Numerics.Rng.uniform rng 0. 1. < 0.6 then
                   Some (i, Numerics.Rng.uniform rng (-1.) 2.)
                 else None))
  in
  let rhs = Array.init m (fun _ -> Numerics.Rng.uniform rng 0.5 8.) in
  let lo = Array.make (n + m) 0. in
  let up = Array.init (n + m) (fun j -> if j < n then 6. else infinity) in
  let obj =
    Array.init (n + m) (fun j -> if j < n then Numerics.Rng.uniform rng (-1.) 2. else 0.)
  in
  { Lp.Simplex.n_rows = m; cols; rhs; obj; lo; up }

(* Dense KKT certificate of a returned optimum, computed with
   [Numerics.Lu] — no code shared with [Lp.Basis]: the basis matrix B is
   rebuilt densely and Bᵀy = c_B solved for the multipliers.  Returns
   the worst primal error (row residual ‖Ax − b‖∞, bound violation, or
   a nonbasic variable off the bound its status names) and the worst
   wrong-signed reduced cost d_j = c_j − yᵀa_j (maximization: d ≤ 0 at
   a lower bound, d ≥ 0 at an upper bound, d = 0 when basic or free;
   fixed variables are exempt). *)
let kkt_errors (spec : Lp.Simplex.spec) x (b : Lp.Simplex.basis) =
  let m = spec.n_rows in
  let ax = Array.make m 0. in
  Array.iteri
    (fun j col -> List.iter (fun (i, v) -> ax.(i) <- ax.(i) +. (v *. x.(j))) col)
    spec.cols;
  let primal = ref 0. in
  let worse e = primal := Float.max !primal e in
  Array.iteri (fun i r -> worse (Float.abs (ax.(i) -. r))) spec.rhs;
  Array.iteri
    (fun j xj ->
      worse (spec.lo.(j) -. xj);
      worse (xj -. spec.up.(j));
      match b.Lp.Simplex.b_status.(j) with
      | Lp.Simplex.At_lower -> worse (Float.abs (xj -. spec.lo.(j)))
      | Lp.Simplex.At_upper -> worse (Float.abs (xj -. spec.up.(j)))
      | Lp.Simplex.Basic | Lp.Simplex.Free_nb -> ())
    x;
  let bt = Testkit.Matrix.zeros m m in
  Array.iteri
    (fun r j ->
      List.iter
        (fun (i, v) -> Testkit.Matrix.set bt r i (Testkit.Matrix.get bt r i +. v))
        spec.cols.(j))
    b.Lp.Simplex.b_rows;
  let y =
    Testkit.Lu.solve (Testkit.Lu.factor bt)
      (Array.map (fun j -> spec.obj.(j)) b.Lp.Simplex.b_rows)
  in
  let dual = ref 0. in
  Array.iteri
    (fun j col ->
      let d = List.fold_left (fun acc (i, v) -> acc -. (y.(i) *. v)) spec.obj.(j) col in
      let wrong =
        if Float.equal spec.lo.(j) spec.up.(j) then 0.
        else
          match b.Lp.Simplex.b_status.(j) with
          | Lp.Simplex.At_lower -> Float.max 0. d
          | Lp.Simplex.At_upper -> Float.max 0. (-.d)
          | Lp.Simplex.Basic | Lp.Simplex.Free_nb -> Float.abs d
      in
      dual := Float.max !dual wrong)
    spec.cols;
  (!primal, !dual)

let test_sparse_vs_dense_oracle () =
  (* Every optimum of the sparse solver comes with a structural basis
     whose dense KKT certificate holds to 1e-9. *)
  let rng = Numerics.Rng.create 2024 in
  for _ = 1 to 40 do
    let spec = random_spec rng in
    match Lp.Simplex.solve spec with
    | Lp.Simplex.Optimal { x; _ }, Some b ->
      let primal, dual = kkt_errors spec x b in
      if primal > 1e-9 then Alcotest.failf "primal KKT error %.3g" primal;
      if dual > 1e-9 then Alcotest.failf "dual KKT error %.3g" dual
    | Lp.Simplex.Optimal _, None -> Alcotest.fail "expected a structural optimal basis"
    | (Lp.Simplex.Infeasible | Lp.Simplex.Unbounded), _ ->
      Alcotest.fail "random_spec LPs are feasible and bounded"
  done

let test_cross_kernel_warm_start () =
  (* A basis is purely structural, so it crosses between the cold
     primal path and the warm paths.  The optimal basis warm-starts the
     same LP to the same vertex bit for bit (the terminal polish makes
     the solution a function of the final basis alone); the optimal
     basis of a sibling LP with another objective (primal-feasible:
     warm phase 2) or tighter upper bounds (dual-feasible: dual loop)
     warm-starts it to the cold optimum. *)
  let rng = Numerics.Rng.create 555 in
  let optimal what = function
    | Lp.Simplex.Optimal { x; objective }, b -> (x, objective, b)
    | _ -> Alcotest.failf "%s: expected optimal" what
  in
  for _ = 1 to 20 do
    let spec = random_spec rng in
    let x, objective, b = optimal "cold" (Lp.Simplex.solve spec) in
    (match b with
    | Some b ->
      let wx, wobj, _ = optimal "warm from own basis" (Lp.Simplex.solve ~basis:b spec) in
      if wx <> x || not (Float.equal wobj objective) then
        Alcotest.fail "warm start from the optimal basis must return identical bits"
    | None -> Alcotest.fail "expected a structural optimal basis");
    let n = Array.length spec.Lp.Simplex.cols - spec.Lp.Simplex.n_rows in
    let siblings =
      [
        ( "other objective",
          {
            spec with
            obj =
              Array.mapi
                (fun j c -> if j < n then Numerics.Rng.uniform rng (-1.) 2. else c)
                spec.obj;
          } );
        ( "tighter bounds",
          { spec with up = Array.mapi (fun j u -> if j < n then 3. else u) spec.up } );
      ]
    in
    List.iter
      (fun (what, sibling) ->
        match optimal what (Lp.Simplex.solve sibling) with
        | _, _, Some b' ->
          let _, wobj, _ = optimal what (Lp.Simplex.solve ~basis:b' spec) in
          check_float ~tol:1e-6 (what ^ " basis warms the solve") objective wobj
        | _, _, None -> Alcotest.failf "%s: expected a structural optimal basis" what)
      siblings
  done

let test_sparse_deterministic () =
  (* The solver must be a bit-for-bit deterministic function of the
     spec: identical runs give identical solution vectors. *)
  let rng = Numerics.Rng.create 909 in
  for _ = 1 to 10 do
    let spec = random_spec rng in
    match fst (Lp.Simplex.solve spec), fst (Lp.Simplex.solve spec) with
    | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
      if a.x <> b.x then Alcotest.fail "identical solves must return identical bits";
      if not (Float.equal a.objective b.objective) then
        Alcotest.fail "identical solves must return identical objectives"
    | _ -> Alcotest.fail "expected optimal"
  done

(* {1 Torn and degenerate inputs} *)

let test_empty_column () =
  (* A variable with an all-zero column only moves between its own
     bounds (a bound flip in the ratio test).  With positive reduced
     cost it must land on its upper bound. *)
  let spec =
    {
      Lp.Simplex.n_rows = 1;
      cols = [| []; [ (0, 1.) ]; [ (0, 1.) ] |];
      rhs = [| 4. |];
      obj = [| 2.; 1.; 0. |];
      lo = [| 0.; 0.; 0. |];
      up = [| 3.; infinity; infinity |];
    }
  in
  match fst (Lp.Simplex.solve spec) with
  | Lp.Simplex.Optimal { x; objective } ->
    check_float "empty column at its upper bound" 3. x.(0);
    check_float "objective" 10. objective
  | _ -> Alcotest.fail "expected optimal"

let test_duplicate_rows () =
  (* Byte-identical duplicated rows make every basis containing both
     slacks singular; the solver must still reach the optimum. *)
  let p = Testkit.Lp_problem.make ~n_vars:2 () in
  Testkit.Lp_problem.set_bounds p 0 0. infinity;
  Testkit.Lp_problem.set_bounds p 1 0. infinity;
  Testkit.Lp_problem.set_objective p 0 3.;
  Testkit.Lp_problem.set_objective p 1 2.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Le 4.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Le 4.;
  Testkit.Lp_problem.add_row p [ (0, 1.); (1, 3.) ] Testkit.Lp_problem.Le 6.;
  let _rx, robj = solve_expect_optimal p in
  check_float "objective with duplicate rows" 12. robj

let test_infeasible_after_warm_reject () =
  (* A basis from a neighboring LP whose vertex is neither dual- nor
     primal-feasible under the new data must be rejected (counted), and
     the cold fallback must still prove infeasibility: the new objective
     prices the nonbasic x1 favorably, and x0 + x1 = 20 is out of reach
     with both capped at 5. *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let spec rhs obj =
        {
          Lp.Simplex.n_rows = 1;
          cols = [| [ (0, 1.) ]; [ (0, 1.) ] |];
          rhs = [| rhs |];
          obj;
          lo = [| 0.; 0. |];
          up = [| 5.; 5. |];
        }
      in
      let basis =
        match Lp.Simplex.solve (spec 1. [| 1.; 0. |]) with
        | Lp.Simplex.Optimal _, Some b -> b
        | _ -> Alcotest.fail "seed solve must be optimal with a basis"
      in
      let rejects = Obs.Metrics.counter "simplex.warm_rejects" in
      let before = Obs.Metrics.counter_value rejects in
      (match Lp.Simplex.solve ~basis (spec 20. [| 1.; 2. |]) with
      | Lp.Simplex.Infeasible, None -> ()
      | _ -> Alcotest.fail "x0 + x1 = 20 with both <= 5 must be infeasible");
      Alcotest.(check int) "warm start rejected" (before + 1)
        (Obs.Metrics.counter_value rejects))

(* {1 Eta-file update oracle} *)

(* Random nonsingular square sparse columns: a dominant diagonal entry
   plus a few off-diagonal ones. *)
let random_square_cols rng m =
  Array.init m (fun k ->
      let sign = if Numerics.Rng.uniform rng 0. 1. < 0.5 then 1. else -1. in
      let d = sign *. (2. +. Numerics.Rng.uniform rng 0. 3.) in
      let off =
        List.init m Fun.id
        |> List.filter_map (fun i ->
               if i <> k && Numerics.Rng.uniform rng 0. 1. < 0.3 then
                 Some (i, Numerics.Rng.uniform rng (-1.) 1.)
               else None)
      in
      (k, d) :: off)

let random_replacement_col rng m q =
  let sign = if Numerics.Rng.uniform rng 0. 1. < 0.5 then 1. else -1. in
  let d = sign *. (2. +. Numerics.Rng.uniform rng 0. 3.) in
  let off =
    List.init m Fun.id
    |> List.filter_map (fun i ->
           if i <> q && Numerics.Rng.uniform rng 0. 1. < 0.3 then
             Some (i, Numerics.Rng.uniform rng (-1.) 1.)
           else None)
  in
  (q, d) :: off

let test_eta_vs_refactor_property () =
  (* Long pivot sequences: after every eta update, ftran and btran must
     agree with a fresh sparse LU of the current columns. *)
  let rng = Numerics.Rng.create 4242 in
  for _ = 1 to 6 do
    let m = 5 + Numerics.Rng.int rng 8 in
    let cols = random_square_cols rng m in
    let eta = Lp.Basis.factor (Array.copy cols) in
    for _ = 1 to 30 do
      let q = Numerics.Rng.int rng m in
      let newcol = random_replacement_col rng m q in
      let w = Lp.Basis.ftran_col eta newcol in
      if Float.abs w.(q) > 1e-6 then begin
        Lp.Basis.update eta ~row:q w;
        cols.(q) <- newcol;
        let fresh = Numerics.Sparse_lu.factor (Array.copy cols) in
        let rhs = Array.init m (fun _ -> Numerics.Rng.uniform rng (-2.) 2.) in
        let xe = Lp.Basis.ftran eta rhs in
        let xr = Numerics.Sparse_lu.solve fresh rhs in
        Array.iteri (fun i v -> check_float ~tol:1e-6 "ftran eta vs fresh" v xe.(i)) xr;
        let cb = Array.init m (fun _ -> Numerics.Rng.uniform rng (-2.) 2.) in
        let ye = Lp.Basis.btran eta cb in
        let yr = Numerics.Sparse_lu.solve_t fresh cb in
        Array.iteri (fun i v -> check_float ~tol:1e-6 "btran eta vs fresh" v ye.(i)) yr
      end
    done;
    (* The 30-update sequence blows through the 2√m cap, so the advisory
       trigger must have fired along the way. *)
    Alcotest.(check bool) "refactor advised after a long sequence" true
      (Lp.Basis.should_refactor eta)
  done

let test_stale_factor_refactored () =
  (* A carried basis whose basic column moved by one ulp must be
     refactored against the new column: the warm answer equals the cold
     one bit for bit, and the old column would have given other bits. *)
  let spec a =
    {
      Lp.Simplex.n_rows = 1;
      cols = [| [ (0, a) ]; [ (0, 1.) ] |];
      rhs = [| 1. |];
      obj = [| 1.; 0. |];
      lo = [| 0.; 0. |];
      up = [| infinity; infinity |];
    }
  in
  let x0 = function
    | Lp.Simplex.Optimal { x; _ } -> Printf.sprintf "%h" x.(0)
    | _ -> Alcotest.fail "expected optimal"
  in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let old_x0, basis =
        match Lp.Simplex.solve (spec 3.) with
        | outcome, Some b -> (x0 outcome, b)
        | _, None -> Alcotest.fail "seed solve must return a basis"
      in
      let shifted = spec (Float.succ 3.) in
      let cold = x0 (fst (Lp.Simplex.solve shifted)) in
      Alcotest.(check bool) "the ulp moves the answer" true (old_x0 <> cold);
      let warm_starts = Obs.Metrics.counter "simplex.warm_starts" in
      let before = Obs.Metrics.counter_value warm_starts in
      Alcotest.(check string) "warm = cold, bit for bit" cold
        (x0 (fst (Lp.Simplex.solve ~basis shifted)));
      Alcotest.(check int) "the warm path ran" (before + 1)
        (Obs.Metrics.counter_value warm_starts))

let test_carried_factor_reused () =
  (* A warm start whose basic columns match the carried ones, physically
     or only by their bits, takes the carried LU, and its polish keeps
     it: two reuses, no refactorization, and the cold answer's bits. *)
  let spec () =
    {
      Lp.Simplex.n_rows = 2;
      cols = [| [ (0, 1.); (1, 1.) ]; [ (0, 3.) ]; [ (1, 0.5) ] |];
      rhs = [| 4.; 7. |];
      obj = [| 1.; 0.; 0. |];
      lo = [| 0.; 0.; 0. |];
      up = [| 3.; infinity; infinity |];
    }
  in
  let bits = function
    | Lp.Simplex.Optimal { x; _ } -> Array.to_list (Array.map (Printf.sprintf "%h") x)
    | _ -> Alcotest.fail "expected optimal"
  in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let s = spec () in
      let cold, basis =
        match Lp.Simplex.solve s with
        | outcome, Some b -> (bits outcome, b)
        | _, None -> Alcotest.fail "seed solve must return a basis"
      in
      let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
      List.iter
        (fun (what, s') ->
          let reuses = c "simplex.factor_reuses" and refactors = c "simplex.refactors" in
          Alcotest.(check (list string)) (what ^ ": warm = cold, bit for bit") cold
            (bits (fst (Lp.Simplex.solve ~basis s')));
          Alcotest.(check int) (what ^ ": two reuses") (reuses + 2) (c "simplex.factor_reuses");
          Alcotest.(check int) (what ^ ": no refactorization") refactors (c "simplex.refactors"))
        [ ("same columns", s); ("bit-equal columns", spec ()) ])

(* {1 Dual simplex: bound-flip warm starts} *)

let test_dual_bound_flip_roundtrip () =
  (* Tighten bounds below the optimum, repair with the dual simplex from
     the parent basis, then relax back — both directions must match the
     cold solve, and real dual pivots must have happened somewhere in
     the battery. *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let rng = Numerics.Rng.create 31337 in
      let dual_pivots = Obs.Metrics.counter "simplex.dual_pivots" in
      for _ = 1 to 25 do
        let spec = random_spec rng in
        match Lp.Simplex.solve spec with
        | Lp.Simplex.Optimal { x; objective = obj0 }, Some b ->
          let up' = Array.copy spec.up in
          let changed = ref false in
          Array.iteri
            (fun j xj ->
              if xj > 1. && up'.(j) < infinity then begin
                up'.(j) <- xj /. 2.;
                changed := true
              end)
            x;
          if !changed then begin
            let spec' = { spec with Lp.Simplex.up = up' } in
            let cold = fst (Lp.Simplex.solve spec') in
            let warm, b' = Lp.Simplex.solve ~basis:b spec' in
            (match (cold, warm) with
            | Lp.Simplex.Optimal c, Lp.Simplex.Optimal w ->
              check_float ~tol:1e-6 "dual tighten = cold" c.objective w.objective
            | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> ()
            | _ -> Alcotest.fail "tightened outcome mismatch");
            match b' with
            | Some b2 -> (
              match fst (Lp.Simplex.solve ~basis:b2 spec) with
              | Lp.Simplex.Optimal r ->
                check_float ~tol:1e-6 "dual relax = original" obj0 r.objective
              | _ -> Alcotest.fail "relaxing bounds cannot lose feasibility")
            | None -> ()
          end
        | _ -> ()
      done;
      Alcotest.(check bool) "dual iterations actually ran" true
        (Obs.Metrics.counter_value dual_pivots > 0))

let test_dual_empty_and_degenerate () =
  (* Empty column: only its own bounds move it; tightening the bound on
     a nonbasic empty column must snap it and leave the rest alone. *)
  let spec =
    {
      Lp.Simplex.n_rows = 1;
      cols = [| []; [ (0, 1.) ]; [ (0, 1.) ] |];
      rhs = [| 4. |];
      obj = [| 2.; 1.; 0. |];
      lo = [| 0.; 0.; 0. |];
      up = [| 3.; infinity; infinity |];
    }
  in
  (match Lp.Simplex.solve spec with
  | Lp.Simplex.Optimal { objective; _ }, Some b ->
    check_float "empty-column optimum" 10. objective;
    let spec' = { spec with Lp.Simplex.up = [| 1.; infinity; infinity |] } in
    (match fst (Lp.Simplex.solve ~basis:b spec') with
    | Lp.Simplex.Optimal o -> check_float "empty-column dual tighten" 6. o.objective
    | _ -> Alcotest.fail "expected optimal")
  | _ -> Alcotest.fail "expected optimal with a basis");
  (* Degenerate vertex: two rows bind the same variable, so the repair
     pivot is degenerate on one of them. *)
  let spec2 =
    {
      Lp.Simplex.n_rows = 2;
      cols = [| [ (0, 1.); (1, 1.) ]; [ (0, 1.) ]; [ (1, 1.) ] |];
      rhs = [| 4.; 4. |];
      obj = [| 1.; 0.; 0. |];
      lo = [| 0.; 0.; 0. |];
      up = [| 6.; infinity; infinity |];
    }
  in
  match Lp.Simplex.solve spec2 with
  | Lp.Simplex.Optimal { objective; _ }, Some b2 ->
    check_float "degenerate optimum" 4. objective;
    let spec2' = { spec2 with Lp.Simplex.up = [| 2.; infinity; infinity |] } in
    (match fst (Lp.Simplex.solve ~basis:b2 spec2') with
    | Lp.Simplex.Optimal o -> check_float "degenerate dual tighten" 2. o.objective
    | _ -> Alcotest.fail "expected optimal")
  | _ -> Alcotest.fail "expected optimal with a basis"

let test_dual_infeasible_fallback () =
  (* A bounds-only change that empties the feasible region: the dual
     loop derives the infeasibility certificate (dual ray) on fresh
     factors and returns Infeasible directly — the clear violation needs
     no cold-primal confirmation, so the fallback counter stays put. *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let spec up =
        {
          Lp.Simplex.n_rows = 1;
          cols = [| [ (0, 1.) ] |];
          rhs = [| 1. |];
          obj = [| 1. |];
          lo = [| 0. |];
          up = [| up |];
        }
      in
      let b =
        match Lp.Simplex.solve (spec 5.) with
        | Lp.Simplex.Optimal _, Some b -> b
        | _ -> Alcotest.fail "seed solve must be optimal with a basis"
      in
      let fallbacks = Obs.Metrics.counter "simplex.dual_fallbacks" in
      let dual_solves = Obs.Metrics.counter "simplex.dual_solves" in
      let before_fb = Obs.Metrics.counter_value fallbacks in
      let before_ds = Obs.Metrics.counter_value dual_solves in
      (match fst (Lp.Simplex.solve ~basis:b (spec 0.5)) with
      | Lp.Simplex.Infeasible -> ()
      | _ -> Alcotest.fail "x = 1 with up = 0.5 must be infeasible");
      Alcotest.(check int) "the dual path ran" (before_ds + 1)
        (Obs.Metrics.counter_value dual_solves);
      Alcotest.(check int) "certified without a primal fallback" before_fb
        (Obs.Metrics.counter_value fallbacks))

let test_warm_reject_reasons () =
  (* Every reject path must leave its reason in the per-reason counters. *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
      let spec1 rhs =
        {
          Lp.Simplex.n_rows = 1;
          cols = [| [ (0, 1.) ] |];
          rhs = [| rhs |];
          obj = [| 1. |];
          lo = [| 0. |];
          up = [| 5. |];
        }
      in
      let b1 =
        match Lp.Simplex.solve (spec1 1.) with
        | Lp.Simplex.Optimal _, Some b -> b
        | _ -> Alcotest.fail "seed solve must be optimal with a basis"
      in
      (* Shape: basis from a 1-variable LP against a 2-variable LP. *)
      let spec2 =
        {
          Lp.Simplex.n_rows = 1;
          cols = [| [ (0, 1.) ]; [ (0, 1.) ] |];
          rhs = [| 1. |];
          obj = [| 1.; 0. |];
          lo = [| 0.; 0. |];
          up = [| 5.; 5. |];
        }
      in
      (match fst (Lp.Simplex.solve ~basis:b1 spec2) with
      | Lp.Simplex.Optimal _ -> ()
      | _ -> Alcotest.fail "cold fallback must still solve");
      Alcotest.(check int) "shape reject reason" 1 (c "simplex.warm_rejects_shape");
      (* Singular: the same shape, but the basic column is empty. *)
      let b2 =
        match Lp.Simplex.solve spec2 with
        | Lp.Simplex.Optimal _, Some b -> b
        | _ -> Alcotest.fail "seed solve must be optimal with a basis"
      in
      let empty0 = { spec2 with Lp.Simplex.cols = [| []; [ (0, 1.) ] |] } in
      (match fst (Lp.Simplex.solve ~basis:b2 empty0) with
      | Lp.Simplex.Optimal { objective; _ } ->
        check_float ~tol:1e-6 "cold fallback optimum" 5. objective
      | _ -> Alcotest.fail "x0 = 5, x1 = 1 solves the fallback LP");
      Alcotest.(check int) "singular reject reason" 1 (c "simplex.warm_rejects_singular");
      (* An infeasible vertex that is still dual-feasible is no reject:
         the dual ray certifies infeasibility. *)
      (match fst (Lp.Simplex.solve ~basis:b1 (spec1 10.)) with
      | Lp.Simplex.Infeasible -> ()
      | _ -> Alcotest.fail "rhs = 10 must be infeasible");
      Alcotest.(check int) "dual ray is not a reject" 2 (c "simplex.warm_rejects");
      (* Dual-infeasible (and primal-infeasible) vertex: the new
         objective makes a nonbasic price favorably, the new rhs pushes
         the basic out of its bounds. *)
      let spec3 =
        {
          Lp.Simplex.n_rows = 1;
          cols = [| [ (0, 1.) ]; [ (0, 1.) ] |];
          rhs = [| 1. |];
          obj = [| 1.; 0. |];
          lo = [| 0.; 0. |];
          up = [| 5.; 5. |];
        }
      in
      let b3 =
        match Lp.Simplex.solve spec3 with
        | Lp.Simplex.Optimal _, Some b -> b
        | _ -> Alcotest.fail "seed solve must be optimal with a basis"
      in
      let spec3' = { spec3 with Lp.Simplex.rhs = [| 10. |]; obj = [| 1.; 2. |] } in
      (match fst (Lp.Simplex.solve ~basis:b3 spec3') with
      | Lp.Simplex.Optimal { objective; _ } ->
        check_float ~tol:1e-6 "cold fallback optimum" 15. objective
      | _ -> Alcotest.fail "x0 = x1 = 5 solves the fallback LP");
      Alcotest.(check int) "dual-infeasible reject reason" 1
        (c "simplex.warm_rejects_dual_infeasible");
      Alcotest.(check int) "total rejects = sum of reasons" 3 (c "simplex.warm_rejects"))

let test_beale_cycling () =
  (* Beale's classic cycling example: Dantzig pricing with naive
     tie-breaks can loop on this degenerate LP forever.  The
     degenerate-streak Bland fallback must terminate it at the true
     optimum 1/20. *)
  let p = Testkit.Lp_problem.make ~n_vars:4 () in
  for j = 0 to 3 do
    Testkit.Lp_problem.set_bounds p j 0. infinity
  done;
  Testkit.Lp_problem.set_objective p 0 0.75;
  Testkit.Lp_problem.set_objective p 1 (-150.);
  Testkit.Lp_problem.set_objective p 2 0.02;
  Testkit.Lp_problem.set_objective p 3 (-6.);
  Testkit.Lp_problem.add_row p [ (0, 0.25); (1, -60.); (2, -0.04); (3, 9.) ] Testkit.Lp_problem.Le 0.;
  Testkit.Lp_problem.add_row p [ (0, 0.5); (1, -90.); (2, -0.02); (3, 3.) ] Testkit.Lp_problem.Le 0.;
  Testkit.Lp_problem.add_row p [ (2, 1.) ] Testkit.Lp_problem.Le 1.;
  match Testkit.Lp_problem.solve p with
  | Testkit.Lp_problem.Optimal { objective; _ } -> check_float ~tol:1e-9 "Beale optimum" 0.05 objective
  | _ -> Alcotest.fail "Beale must be optimal"

let test_solve_telemetry () =
  (* With metrics on, a solve shows up in the simplex.* series: solve and
     pivot counters move and the per-solve pivot histogram records one
     observation. *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
      let solves = Obs.Metrics.counter "simplex.solves" in
      let pivots = Obs.Metrics.counter "simplex.pivots" in
      let p = Testkit.Lp_problem.make ~n_vars:2 () in
      Testkit.Lp_problem.set_bounds p 0 0. infinity;
      Testkit.Lp_problem.set_bounds p 1 0. infinity;
      Testkit.Lp_problem.set_objective p 0 3.;
      Testkit.Lp_problem.set_objective p 1 2.;
      Testkit.Lp_problem.add_row p [ (0, 1.); (1, 1.) ] Testkit.Lp_problem.Le 4.;
      Testkit.Lp_problem.add_row p [ (0, 1.); (1, 3.) ] Testkit.Lp_problem.Le 6.;
      let _ = solve_expect_optimal p in
      Alcotest.(check int) "one solve counted" 1 (Obs.Metrics.counter_value solves);
      Alcotest.(check bool) "pivots counted" true (Obs.Metrics.counter_value pivots > 0);
      Alcotest.(check int) "one histogram observation" 1
        (List.assoc "simplex.pivots_per_solve" (Obs.Metrics.delta ()).Obs.Metrics.d_histograms)
          .Obs.Metrics.hd_count)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic maximization" `Quick test_basic_max;
          Alcotest.test_case "basic minimization" `Quick test_basic_min;
          Alcotest.test_case "equality + negative bounds" `Quick test_equality_negative_bounds;
          Alcotest.test_case "upper bounds bind" `Quick test_upper_bounds_bind;
          Alcotest.test_case "infeasible detected" `Quick test_infeasible;
          Alcotest.test_case "unbounded detected" `Quick test_unbounded;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "degenerate vertex" `Quick test_degenerate;
          Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
          Alcotest.test_case "diet problem" `Quick test_diet_problem;
          Alcotest.test_case "random LPs stay feasible" `Quick test_larger_random_consistency;
          Alcotest.test_case "solve telemetry" `Quick test_solve_telemetry;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "sparse vs dense oracle" `Quick test_sparse_vs_dense_oracle;
          Alcotest.test_case "cross-kernel warm start" `Quick test_cross_kernel_warm_start;
          Alcotest.test_case "sparse deterministic" `Quick test_sparse_deterministic;
          Alcotest.test_case "empty column" `Quick test_empty_column;
          Alcotest.test_case "duplicate rows" `Quick test_duplicate_rows;
          Alcotest.test_case "infeasible after warm reject" `Quick
            test_infeasible_after_warm_reject;
          Alcotest.test_case "Beale anti-cycling, all pricings" `Quick test_beale_cycling;
          Alcotest.test_case "eta updates vs fresh refactorization" `Quick
            test_eta_vs_refactor_property;
          Alcotest.test_case "stale factor refactored" `Quick test_stale_factor_refactored;
          Alcotest.test_case "carried factor reused" `Quick test_carried_factor_reused;
        ] );
      ( "dual",
        [
          Alcotest.test_case "bound-flip round trips" `Quick test_dual_bound_flip_roundtrip;
          Alcotest.test_case "empty column and degenerate rows" `Quick
            test_dual_empty_and_degenerate;
          Alcotest.test_case "infeasible certified by dual ray" `Quick
            test_dual_infeasible_fallback;
          Alcotest.test_case "warm reject reasons" `Quick test_warm_reject_reasons;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_simplex_weak_duality ]);
    ]
