type column = (int * float) list

type spec = {
  n_rows : int;
  cols : column array;
  rhs : float array;
  obj : float array;
  lo : float array;
  up : float array;
}

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

type status = Basic | At_lower | At_upper | Free_nb

(* Numerical tolerances: [tol_d] for reduced costs, [tol_p] for pivots,
   [tol_f] for feasibility of the phase-1 objective. *)
let tol_d = 1e-9
let tol_p = 1e-10
let tol_f = 1e-7

(* A pivot whose step is below [tol_degen] makes no progress; a streak of
   [bland_streak] of them in a row switches pricing to Bland's rule until
   the objective moves again, so a cycling-prone vertex costs a bounded
   number of stalled iterations instead of the whole [max_iter] budget. *)
let tol_degen = 1e-10
let bland_streak = 40

(* Pivot budget per phase; exceeding it raises [Failure]. *)
let max_iter = 50_000

(* Observability probes: single-atomic-load no-ops until metrics are
   enabled.  Pivots are counted at both basis changes and bound flips —
   each is one iteration of work in the 608-reaction FBA screens. *)
let m_solves = Obs.Metrics.counter "simplex.solves"
let m_pivots = Obs.Metrics.counter "simplex.pivots"
let m_refactors = Obs.Metrics.counter "simplex.refactors"
let m_factor_reuses = Obs.Metrics.counter "simplex.factor_reuses"
let m_phase1_ns = Obs.Metrics.counter "simplex.phase1_ns"
let m_phase2_ns = Obs.Metrics.counter "simplex.phase2_ns"
let m_warm_starts = Obs.Metrics.counter "simplex.warm_starts"
let m_warm_rejects = Obs.Metrics.counter "simplex.warm_rejects"
let m_bland = Obs.Metrics.counter "simplex.bland_activations"

(* Warm-start rejects, by reason — the cache-efficacy signal. *)
let m_wr_shape = Obs.Metrics.counter "simplex.warm_rejects_shape"
let m_wr_singular = Obs.Metrics.counter "simplex.warm_rejects_singular"
let m_wr_dual = Obs.Metrics.counter "simplex.warm_rejects_dual_infeasible"
let m_wr_limit = Obs.Metrics.counter "simplex.warm_rejects_limit"

(* Dual-simplex accounting.  Dual pivots also count into the shared
   [simplex.pivots], so "total pivots" reads one counter regardless of
   which loop did the work. *)
let m_dual_solves = Obs.Metrics.counter "simplex.dual_solves"
let m_dual_pivots = Obs.Metrics.counter "simplex.dual_pivots"
let m_dual_fallbacks = Obs.Metrics.counter "simplex.dual_fallbacks"
let m_dual_ns = Obs.Metrics.counter "simplex.dual_ns"

let h_pivots =
  Obs.Metrics.histogram "simplex.pivots_per_solve"
    ~buckets:[| 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 5000. |]

let h_refactor_ns =
  Obs.Metrics.histogram "simplex.refactor_ns"
    ~buckets:[| 1e3; 3e3; 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 1e8 |]

(* Run [f] and charge its wall time to counter [c] (whole nanoseconds).
   The clock is only read when metrics are on. *)
let timed c f =
  if Obs.Metrics.enabled () then begin
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    Obs.Metrics.add c (Obs.Clock.now_ns () - t0);
    r
  end
  else f ()

let timed_hist h f =
  if Obs.Metrics.enabled () then begin
    let t0 = Obs.Clock.now_ns () in
    let r = f () in
    Obs.Metrics.observe h (float_of_int (Obs.Clock.now_ns () - t0));
    r
  end
  else f ()

type state = {
  m : int;                    (* rows *)
  n_total : int;              (* structural + artificial variables *)
  cols : column array;        (* columns for all variables *)
  rhs : float array;
  lo : float array;           (* mutable bound arrays (artificials get pinned) *)
  up : float array;
  status : status array;
  basis : int array;          (* basis.(i) = variable basic in row i *)
  fac : Basis.t;
  x : float array;            (* current values of all variables *)
}

let basis_columns st = Array.init st.m (fun r -> st.cols.(st.basis.(r)))

(* Simplex multipliers y = B⁻ᵀ c_B. *)
let multipliers st c = Basis.btran st.fac (Array.init st.m (fun r -> c.(st.basis.(r))))

(* ρ = B⁻ᵀ e_r — row r of the basis inverse; the dual-simplex pricing
   row. *)
let btran_unit st r =
  let c = Array.make st.m 0. in
  c.(r) <- 1.;
  Basis.btran st.fac c

(* Recompute the values of the basic variables from the nonbasic ones:
   x_B = B⁻¹ (b − N x_N).  Pivots update x incrementally; this exact
   recomputation runs after every refactorization to wash out drift. *)
let recompute_basics st =
  let resid = Array.copy st.rhs in
  for j = 0 to st.n_total - 1 do
    match st.status.(j) with
    | Basic -> ()
    | At_lower | At_upper | Free_nb ->
      let xj = st.x.(j) in
      (* robustlint: allow R1 — exact-zero sparsity skip *)
      if xj <> 0. then List.iter (fun (i, v) -> resid.(i) <- resid.(i) -. (v *. xj)) st.cols.(j)
  done;
  let xb = Basis.ftran st.fac resid in
  for r = 0 to st.m - 1 do
    st.x.(st.basis.(r)) <- xb.(r)
  done

(* Rebuild the factorization from scratch: the numerical refresh, and
   the answer to a full eta file. *)
let refactor st =
  Obs.Metrics.incr m_refactors;
  timed_hist h_refactor_ns @@ fun () -> Basis.refactor st.fac (basis_columns st)

(* Reduced cost of variable [j] given simplex multipliers [y]. *)
let reduced_cost st c y j =
  let d = ref c.(j) in
  List.iter (fun (i, v) -> d := !d -. (y.(i) *. v)) st.cols.(j);
  !d

(* One phase of the primal simplex loop with objective [c]
   (maximization).  Returns [`Optimal] or [`Unbounded].

   Dantzig pricing: every nonbasic column is scanned for the worst
   reduced cost, falling back to Bland's rule (first eligible index)
   during a degenerate streak. *)
let optimize ~pivots st c =
  let iter = ref 0 in
  let degen = ref 0 in
  let bland_on = ref false in
  let last_obj = ref neg_infinity in
  let result = ref None in
  let n_total = st.n_total in
  while !result = None do
    incr iter;
    if !iter > max_iter then failwith "Simplex.optimize: iteration limit exceeded";
    if Basis.should_refactor st.fac then begin
      refactor st;
      recompute_basics st
    end;
    let y = multipliers st c in
    (* Eligible reduced-cost magnitude of column [j]; fixed variables
       (lo = up) can never move and are skipped. *)
    let viol_of j =
      (* robustlint: allow R1 — fixed variables are pinned by exactly equal bounds *)
      if st.lo.(j) = st.up.(j) then 0.
      else
        match st.status.(j) with
        | Basic -> 0.
        | At_lower ->
          let d = reduced_cost st c y j in
          if d > tol_d then d else 0.
        | At_upper ->
          let d = reduced_cost st c y j in
          if d < -.tol_d then -.d else 0.
        | Free_nb ->
          let d = reduced_cost st c y j in
          let a = Float.abs d in
          if a > tol_d then a else 0.
    in
    let entering = ref (-1) in
    if !bland_on then (
      try
        for j = 0 to n_total - 1 do
          if viol_of j > 0. then begin
            entering := j;
            raise Exit
          end
        done
      with Exit -> ())
    else begin
      let best = ref tol_d in
      for j = 0 to n_total - 1 do
        let v = viol_of j in
        if v > !best then begin
          best := v;
          entering := j
        end
      done
    end;
    if !entering < 0 then result := Some `Optimal
    else begin
      let j = !entering in
      let dj = reduced_cost st c y j in
      let dir =
        match st.status.(j) with
        | At_lower -> 1.
        | At_upper -> -1.
        | Free_nb -> if dj > 0. then 1. else -1.
        | Basic -> assert false
      in
      let w = Basis.ftran_col st.fac st.cols.(j) in
      (* Ratio test: the entering variable moves by [dir * t], t >= 0. *)
      let t_flip =
        if st.lo.(j) > neg_infinity && st.up.(j) < infinity then st.up.(j) -. st.lo.(j)
        else infinity
      in
      let t_best = ref t_flip in
      let leave_row = ref (-1) in
      let leave_to_upper = ref false in
      for r = 0 to st.m - 1 do
        let delta = -.dir *. w.(r) in
        if Float.abs delta > tol_p then begin
          let k = st.basis.(r) in
          let xk = st.x.(k) in
          if delta > 0. then begin
            if st.up.(k) < infinity then begin
              let t = Float.max 0. ((st.up.(k) -. xk) /. delta) in
              if t < !t_best -. 1e-12 || (t <= !t_best && !leave_row >= 0 && Float.abs w.(r) > Float.abs w.(!leave_row)) then begin
                t_best := t;
                leave_row := r;
                leave_to_upper := true
              end
            end
          end
          else if st.lo.(k) > neg_infinity then begin
            let t = Float.max 0. ((xk -. st.lo.(k)) /. -.delta) in
            if t < !t_best -. 1e-12 || (t <= !t_best && !leave_row >= 0 && Float.abs w.(r) > Float.abs w.(!leave_row)) then begin
              t_best := t;
              leave_row := r;
              leave_to_upper := false
            end
          end
        end
      done;
      (* robustlint: allow R1 — t_best stays exactly infinity iff no ratio bound was found *)
      if !t_best = infinity then result := Some `Unbounded
      else begin
        let t = !t_best in
        incr pivots;
        Obs.Metrics.incr m_pivots;
        (* Move the basic variables along the direction, then place the
           entering/leaving variables exactly. *)
        let step = dir *. t in
        (* robustlint: allow R1 — a degenerate step moves nothing, exactly *)
        if step <> 0. then
          for r = 0 to st.m - 1 do
            let k = st.basis.(r) in
            st.x.(k) <- st.x.(k) -. (step *. w.(r))
          done;
        if !leave_row < 0 then begin
          (* Bound flip: the entering variable runs to its opposite bound;
             the basis is unchanged. *)
          st.x.(j) <- (if dir > 0. then st.up.(j) else st.lo.(j));
          st.status.(j) <- (if dir > 0. then At_upper else At_lower)
        end
        else begin
          let r = !leave_row in
          let k = st.basis.(r) in
          Basis.update st.fac ~row:r w;
          st.basis.(r) <- j;
          st.status.(j) <- Basic;
          st.x.(j) <- st.x.(j) +. step;
          st.status.(k) <- (if !leave_to_upper then At_upper else At_lower);
          st.x.(k) <- (if !leave_to_upper then st.up.(k) else st.lo.(k))
        end;
        (* Degenerate-streak bookkeeping for the Bland fallback. *)
        let obj = ref 0. in
        for v = 0 to st.n_total - 1 do
          obj := !obj +. (c.(v) *. st.x.(v))
        done;
        if !obj > !last_obj +. 1e-12 then begin
          last_obj := !obj;
          degen := 0;
          bland_on := false
        end
        else if t <= tol_degen then begin
          incr degen;
          if (not !bland_on) && !degen >= bland_streak then begin
            bland_on := true;
            Obs.Metrics.incr m_bland
          end
        end
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

(* Bounded-variable dual simplex (maximization), for warm starts whose
   basis is dual-feasible but primal-infeasible — the bounds-only
   change.  Each iteration picks the basic variable with the largest
   bound violation as the leaving variable, prices the entering variable
   by the dual ratio test on the btran row ρ = B⁻ᵀe_r (ties to the
   largest pivot magnitude, Bland-style smallest index during a
   degenerate streak), and pivots.  Returns [`Optimal] once primal
   feasibility is restored (dual feasibility is invariant);
   [`Infeasible] when no entering column exists on a freshly rebuilt
   factorization and the violation clearly exceeds tolerance — the dual
   ray is a trusted certificate of primal infeasibility; or
   [`Dual_unbounded] when the certificate is within tolerance noise and
   needs the cold primal to adjudicate. *)
let optimize_dual ~pivots st c =
  let iter = ref 0 in
  let degen = ref 0 in
  let bland_on = ref false in
  (* Whether the factorization has been rebuilt since the last basis
     change — the precondition for trusting an infeasibility
     certificate. *)
  let fresh = ref false in
  let result = ref None in
  while !result = None do
    incr iter;
    if !iter > max_iter then failwith "Simplex.optimize_dual: iteration limit exceeded";
    if Basis.should_refactor st.fac then begin
      refactor st;
      recompute_basics st;
      fresh := true
    end;
    (* Leaving variable: worst primal bound violation among the basics. *)
    let leave = ref (-1) in
    let worst = ref 0. in
    for i = 0 to st.m - 1 do
      let k = st.basis.(i) in
      let xk = st.x.(k) in
      let slack = tol_f *. (1. +. Float.abs xk) in
      let v =
        if xk < st.lo.(k) -. slack then st.lo.(k) -. xk
        else if xk > st.up.(k) +. slack then xk -. st.up.(k)
        else 0.
      in
      if v > !worst then begin
        worst := v;
        leave := i
      end
    done;
    if !leave < 0 then result := Some `Optimal
    else begin
      let r = !leave in
      let k = st.basis.(r) in
      let to_lower = st.x.(k) < st.lo.(k) in
      let y = multipliers st c in
      let rho = btran_unit st r in
      (* With the leaving variable headed to its lower bound its basic
         value must rise, so the pivot row is used as-is; headed to the
         upper bound everything flips sign. *)
      let s = if to_lower then 1. else -1. in
      let entering = ref (-1) in
      let best_ratio = ref infinity in
      let best_alpha = ref 0. in
      for q = 0 to st.n_total - 1 do
        (* robustlint: allow R1 — fixed variables are pinned by exactly equal bounds *)
        if st.status.(q) <> Basic && st.lo.(q) <> st.up.(q) then begin
          let a = ref 0. in
          List.iter (fun (i, v) -> a := !a +. (rho.(i) *. v)) st.cols.(q);
          let alpha = s *. !a in
          let eligible =
            match st.status.(q) with
            | At_lower -> alpha < -.tol_p
            | At_upper -> alpha > tol_p
            | Free_nb -> Float.abs alpha > tol_p
            | Basic -> false
          in
          if eligible then begin
            (* Dual ratio |d_q / α_q|; a free nonbasic column has d ≈ 0
               and is always the cheapest move. *)
            let ratio =
              match st.status.(q) with
              | Free_nb -> 0.
              | _ -> Float.max 0. (reduced_cost st c y q /. alpha)
            in
            let take =
              if !entering < 0 then true
              else if ratio < !best_ratio -. 1e-12 then true
              else if ratio > !best_ratio +. 1e-12 then false
              else if !bland_on then false (* Bland: keep the smallest index *)
              else Float.abs alpha > Float.abs !best_alpha
            in
            if take then begin
              best_ratio := Float.min !best_ratio ratio;
              entering := q;
              best_alpha := alpha
            end
          end
        end
      done;
      if !entering < 0 then begin
        (* No entering column: row r certifies that x_k cannot reach its
           bound over the nonbasic box — primal infeasibility.  The
           certificate is only as good as the factors behind ρ, so it is
           re-derived once on a fresh factorization; a clear violation
           there is accepted as [`Infeasible] outright, while a
           tolerance-sized one is left to the cold primal to adjudicate
           ([`Dual_unbounded]). *)
        if not !fresh then begin
          refactor st;
          recompute_basics st;
          fresh := true
        end
        else if !worst > 1e3 *. tol_f *. (1. +. Float.abs st.x.(k)) then
          result := Some `Infeasible
        else result := Some `Dual_unbounded
      end
      else begin
        let j = !entering in
        let w = Basis.ftran_col st.fac st.cols.(j) in
        if Float.abs w.(r) <= tol_p then begin
          (* The pricing row and the ftran column disagree about the
             pivot magnitude — stale factors; refresh and retry. *)
          refactor st;
          recompute_basics st;
          fresh := true
        end
        else begin
          let bound = if to_lower then st.lo.(k) else st.up.(k) in
          let t = (st.x.(k) -. bound) /. w.(r) in
          incr pivots;
          Obs.Metrics.incr m_pivots;
          Obs.Metrics.incr m_dual_pivots;
          (* robustlint: allow R1 — a degenerate step moves nothing, exactly *)
          if t <> 0. then
            for i = 0 to st.m - 1 do
              let kb = st.basis.(i) in
              st.x.(kb) <- st.x.(kb) -. (t *. w.(i))
            done;
          st.x.(j) <- st.x.(j) +. t;
          Basis.update st.fac ~row:r w;
          fresh := false;
          st.basis.(r) <- j;
          st.status.(j) <- Basic;
          st.status.(k) <- (if to_lower then At_lower else At_upper);
          st.x.(k) <- bound;
          (* Degenerate-streak bookkeeping: a stalled dual step switches
             the entering tie-break to Bland's smallest-index rule. *)
          if Float.abs t <= tol_degen then begin
            incr degen;
            if (not !bland_on) && !degen >= bland_streak then begin
              bland_on := true;
              Obs.Metrics.incr m_bland
            end
          end
          else begin
            degen := 0;
            bland_on := false
          end
        end
      end
    end
  done;
  match !result with Some r -> r | None -> assert false

type basis = {
  b_status : status array;
  b_rows : int array;
  b_lu : (column array * Numerics.Sparse_lu.t) option;
}

(* Factor the columns basic in rows 0..m-1; [None] on a singular basis
   matrix. *)
let factor_basis cols =
  match Basis.factor cols with
  | exception Numerics.Sparse_lu.Singular -> None
  | b -> Some b

(* Columns with the same entries in the same order, values compared by
   their bits: [Sparse_lu.factor] is a deterministic function of exactly
   this, so equal columns have equal factorizations. *)
let rec same_entries (a : column) (b : column) =
  match (a, b) with
  | [], [] -> true
  | (i, v) :: a', (i', v') :: b' ->
    Int.equal i i'
    && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
    && same_entries a' b'
  | _ -> false

let same_columns a b = Array.for_all2 (fun x y -> x == y || same_entries x y) a b

(* Reconstruct a full simplex state from a previously optimal basis:
   statuses for the structural variables plus the basic variable of each
   row.  Artificials are re-created pinned at zero (lo = up = 0,
   nonbasic), the basis matrix is factored — or its carried LU reused
   when every basic column of the new spec equals the one it was
   factored from, which is the same factorization — and the basic
   values are recomputed against the {e new} rhs/bounds, so a basis
   carried over from a neighboring LP yields an exact vertex of the new
   LP, not an approximation.  Returns
   [Error `Shape] when the basis is structurally inconsistent with the
   spec and [Error `Singular] on a singular basis matrix; feasibility of
   the vertex is the caller's decision ({!primal_feasible},
   {!dual_feasible}). *)
let warm_state spec basis =
  let m = spec.n_rows in
  let n = Array.length spec.cols in
  if Array.length basis.b_status <> n || Array.length basis.b_rows <> m then Error `Shape
  else begin
    let ok = ref true in
    let seen = Array.make n false in
    Array.iter
      (fun j ->
        if j < 0 || j >= n || seen.(j) || basis.b_status.(j) <> Basic then ok := false
        else seen.(j) <- true)
      basis.b_rows;
    let basic_count = ref 0 in
    Array.iteri
      (fun j s ->
        match s with
        | Basic ->
          incr basic_count;
          if not seen.(j) then ok := false
        | At_lower -> if not (spec.lo.(j) > neg_infinity) then ok := false
        | At_upper -> if not (spec.up.(j) < infinity) then ok := false
        | Free_nb -> ())
      basis.b_status;
    Array.iteri (fun j l -> if not (l <= spec.up.(j)) then ok := false) spec.lo;
    if (not !ok) || !basic_count <> m then Error `Shape
    else begin
      let n_total = n + m in
      let lo = Array.append (Array.copy spec.lo) (Array.make m 0.) in
      let up = Array.append (Array.copy spec.up) (Array.make m 0.) in
      let status = Array.make n_total At_lower in
      let x = Array.make n_total 0. in
      Array.blit basis.b_status 0 status 0 n;
      for j = 0 to n - 1 do
        match status.(j) with
        | Basic | Free_nb -> ()
        | At_lower -> x.(j) <- lo.(j)
        | At_upper -> x.(j) <- up.(j)
      done;
      let cols =
        Array.append (Array.copy spec.cols) (Array.init m (fun i -> [ (i, 1.) ]))
      in
      let basic_cols = Array.map (fun j -> spec.cols.(j)) basis.b_rows in
      let fac =
        match basis.b_lu with
        | Some (cols, lu) when same_columns cols basic_cols ->
          Obs.Metrics.incr m_factor_reuses;
          Some (Basis.of_lu lu)
        | _ -> factor_basis basic_cols
      in
      match fac with
      | None -> Error `Singular
      | Some fac ->
        let st =
          { m; n_total; cols; rhs = Array.copy spec.rhs; lo; up; status;
            basis = Array.copy basis.b_rows; fac; x }
        in
        recompute_basics st;
        Ok st
    end
  end

(* Primal feasibility of the warm vertex: every basic variable within
   its bounds (the nonbasics sit exactly on theirs by construction). *)
let primal_feasible st =
  let feasible = ref true in
  for r = 0 to st.m - 1 do
    let k = st.basis.(r) in
    let slack = tol_f *. (1. +. Float.abs st.x.(k)) in
    if not (st.x.(k) >= st.lo.(k) -. slack && st.x.(k) <= st.up.(k) +. slack) then
      feasible := false
  done;
  !feasible

(* Dual feasibility of the warm vertex under objective [c]: no nonbasic
   column prices favorably (fixed variables are exempt — they can never
   enter).  A dual-feasible basis lets {!optimize_dual} restore primal
   feasibility without a phase 1. *)
let dual_feasible st c =
  let y = multipliers st c in
  let ok = ref true in
  for j = 0 to st.n_total - 1 do
    (* robustlint: allow R1 — fixed variables are pinned by exactly equal bounds *)
    if st.status.(j) <> Basic && st.lo.(j) <> st.up.(j) then begin
      let d = reduced_cost st c y j in
      let slack = tol_f *. (1. +. Float.abs c.(j)) in
      match st.status.(j) with
      | At_lower -> if d > slack then ok := false
      | At_upper -> if d < -.slack then ok := false
      | Free_nb -> if Float.abs d > slack then ok := false
      | Basic -> ()
    end
  done;
  !ok

(* Extract the reusable part of a solved state: only structural-variable
   bases survive (a basic artificial would not transfer).  The LU rides
   along while it is the plain factorization of the basic columns. *)
let basis_of st n =
  if Array.exists (fun j -> j >= n) st.basis then None
  else
    Some
      {
        b_status = Array.sub st.status 0 n;
        b_rows = Array.copy st.basis;
        b_lu = Option.map (fun lu -> (basis_columns st, lu)) (Basis.fresh_lu st.fac);
      }

let count_reject reason =
  Obs.Metrics.incr m_warm_rejects;
  Obs.Metrics.incr
    (match reason with
    | `Shape -> m_wr_shape
    | `Singular -> m_wr_singular
    | `Dual_infeasible -> m_wr_dual
    | `Limit -> m_wr_limit)

(* Final polish: factor the terminal basis afresh and recompute the
   basic values before extracting the solution, so the reported
   (x, objective) is a pure function of (final basis, statuses, spec) —
   identical bits whichever pivot path (cold, warm primal or dual)
   reached that basis.  With an empty eta file the factors already are
   that fresh LU and are kept.  A (numerically) singular terminal basis
   keeps the updated factors instead. *)
let polish st =
  match Basis.fresh_lu st.fac with
  | Some _ ->
    Obs.Metrics.incr m_factor_reuses;
    recompute_basics st
  | None -> (
    match refactor st with
    | () -> recompute_basics st
    | exception Numerics.Sparse_lu.Singular -> ())

let cold_solve spec ~pivots ~finish ~phase2 =
  let m = spec.n_rows in
  let n = Array.length spec.cols in
  let n_total = n + m in
  let lo = Array.append (Array.copy spec.lo) (Array.make m 0.) in
  let up = Array.append (Array.copy spec.up) (Array.make m infinity) in
  let status = Array.make n_total At_lower in
  let x = Array.make n_total 0. in
  (* Start every structural variable at its bound nearest zero. *)
  for j = 0 to n - 1 do
    if not (lo.(j) <= up.(j)) then invalid_arg "Simplex.solve: empty variable bound";
    if lo.(j) > neg_infinity && 0. <= lo.(j) then begin
      x.(j) <- lo.(j);
      status.(j) <- At_lower
    end
    else if up.(j) < infinity && 0. >= up.(j) then begin
      x.(j) <- up.(j);
      status.(j) <- At_upper
    end
    else if lo.(j) > neg_infinity then begin
      x.(j) <- lo.(j);
      status.(j) <- At_lower
    end
    else if up.(j) < infinity then begin
      x.(j) <- up.(j);
      status.(j) <- At_upper
    end
    else begin
      x.(j) <- 0.;
      status.(j) <- Free_nb
    end
  done;
  (* Residual determines the artificial columns' signs. *)
  let resid = Array.copy spec.rhs in
  for j = 0 to n - 1 do
    (* robustlint: allow R1 — exact-zero sparsity skip while building the residual *)
    if x.(j) <> 0. then
      List.iter (fun (i, v) -> resid.(i) <- resid.(i) -. (v *. x.(j))) spec.cols.(j)
  done;
  let art_sign = Array.map (fun r -> if r >= 0. then 1. else -1.) resid in
  let cols =
    Array.append (Array.copy spec.cols) (Array.init m (fun i -> [ (i, art_sign.(i)) ]))
  in
  let basis = Array.init m (fun i -> n + i) in
  let fac =
    match factor_basis (Array.sub cols n m) with
    | Some f -> f
    | None -> invalid_arg "Simplex.solve: artificial basis cannot be singular"
  in
  for i = 0 to m - 1 do
    status.(n + i) <- Basic;
    x.(n + i) <- Float.abs resid.(i)
  done;
  let st = { m; n_total; cols; rhs = Array.copy spec.rhs; lo; up; status; basis; fac; x } in
  (* Phase 1: minimize the sum of artificials. *)
  let c1 = Array.init n_total (fun j -> if j >= n then -1. else 0.) in
  (match timed m_phase1_ns (fun () -> optimize ~pivots st c1) with
  | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
  | `Optimal -> ());
  let infeas = ref 0. in
  for i = 0 to m - 1 do
    infeas := !infeas +. x.(n + i)
  done;
  if !infeas > tol_f then finish st Infeasible
  else begin
    (* Pin the artificials at zero for phase 2. *)
    for i = 0 to m - 1 do
      st.up.(n + i) <- 0.;
      if st.status.(n + i) <> Basic then begin
        st.status.(n + i) <- At_lower;
        st.x.(n + i) <- 0.
      end
    done;
    finish st (phase2 st)
  end

let validate spec =
  let m = spec.n_rows in
  let n = Array.length spec.cols in
  if Array.length spec.rhs <> m then invalid_arg "Simplex.solve: rhs length mismatch";
  if not (Array.length spec.obj = n && Array.length spec.lo = n && Array.length spec.up = n)
  then invalid_arg "Simplex.solve: obj/lo/up length mismatch"

let solve ?basis spec =
  Obs.Metrics.incr m_solves;
  Obs.Span.with_span "simplex.solve" @@ fun () ->
  validate spec;
  let n = Array.length spec.cols in
  let pivots = ref 0 in
  let finish st outcome =
    Obs.Metrics.observe h_pivots (float_of_int !pivots);
    let carry = match outcome with Optimal _ -> basis_of st n | _ -> None in
    (outcome, carry)
  in
  let extract st =
    let xs = Array.sub st.x 0 n in
    let objective = ref 0. in
    for j = 0 to n - 1 do
      objective := !objective +. (spec.obj.(j) *. xs.(j))
    done;
    Optimal { x = xs; objective = !objective }
  in
  let full_obj st = Array.init st.n_total (fun j -> if j < n then spec.obj.(j) else 0.) in
  let phase2 st =
    match timed m_phase2_ns (fun () -> optimize ~pivots st (full_obj st)) with
    | `Unbounded -> Unbounded
    | `Optimal ->
      polish st;
      extract st
  in
  let cold () = cold_solve spec ~pivots ~finish ~phase2 in
  let warm_primal st =
    Obs.Metrics.incr m_warm_starts;
    match phase2 st with
    | outcome -> finish st outcome
    | exception Failure _ ->
      (* Iteration-limit blowup from a degenerate warm vertex: charge it
         as a reject and redo the honest two-phase solve. *)
      count_reject `Limit;
      cold ()
  in
  match basis with
  | None -> cold ()
  | Some b -> (
    match warm_state spec b with
    | Error `Shape ->
      count_reject `Shape;
      cold ()
    | Error `Singular ->
      count_reject `Singular;
      cold ()
    | Ok st ->
      let c2 = full_obj st in
      if dual_feasible st c2 then begin
        Obs.Metrics.incr m_warm_starts;
        Obs.Metrics.incr m_dual_solves;
        match timed m_dual_ns (fun () -> optimize_dual ~pivots st c2) with
        | `Optimal ->
          polish st;
          finish st (extract st)
        | `Infeasible ->
          (* The dual ray re-derived on fresh factors with a clear
             violation: trusted infeasibility certificate, no cold
             confirmation needed. *)
          finish st Infeasible
        | `Dual_unbounded ->
          (* The certificate sits inside tolerance noise — confirm on
             the honest cold path. *)
          Obs.Metrics.incr m_dual_fallbacks;
          cold ()
        | exception Failure _ ->
          count_reject `Limit;
          cold ()
      end
      else if primal_feasible st then warm_primal st
      else begin
        count_reject `Dual_infeasible;
        cold ()
      end)
