type spec = {
  n_rows : int;
  cols : Numerics.Sparse.csc;
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

(* {1 The per-domain workspace}

   Every vector a solve works in lives in one workspace per domain,
   sized on first use (grown when a larger LP arrives) and fully
   reinitialised by every solve, so a solve allocates its outcome, its
   carried basis and the LUs it factors, and nothing per pivot.  [solve]
   takes no callbacks, so a domain never runs two solves at once; the
   outcome and the carried basis are copies, never views of it. *)

type workspace = {
  mutable lo : float array;     (* n_total: bounds, artificials pinned *)
  mutable up : float array;
  mutable x : float array;      (* current values of all variables *)
  mutable cost : float array;   (* the current phase's objective *)
  mutable status : status array;
  mutable rhs : float array;    (* m *)
  mutable art : float array;    (* m: artificial n + i is art.(i)·e_i *)
  mutable basis : int array;    (* m: basis.(i) = variable basic in row i *)
  mutable y : float array;      (* m: simplex multipliers *)
  mutable rho : float array;    (* m: dual pricing row *)
  mutable w : float array;      (* m: ftran of the entering column *)
  mutable xb : float array;     (* m: recomputed basic values *)
  mutable work : float array;   (* m: right-hand side consumed by a solve *)
  mutable b_ptr : int array;    (* m + 1: the basis matrix, compressed *)
  mutable b_row : int array;
  mutable b_val : float array;
  mutable fac : Basis.t option;
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        lo = [||]; up = [||]; x = [||]; cost = [||]; status = [||];
        rhs = [||]; art = [||]; basis = [||]; y = [||]; rho = [||]; w = [||];
        xb = [||]; work = [||]; b_ptr = [| 0 |]; b_row = [||]; b_val = [||];
        fac = None;
      })

(* The calling domain's workspace, with room for [m] rows and [n_total]
   variables. *)
let workspace ~m ~n_total =
  let ws = Domain.DLS.get workspace_key in
  if Array.length ws.x < n_total then begin
    ws.lo <- Array.make n_total 0.;
    ws.up <- Array.make n_total 0.;
    ws.x <- Array.make n_total 0.;
    ws.cost <- Array.make n_total 0.;
    ws.status <- Array.make n_total At_lower
  end;
  if Array.length ws.rhs < m then begin
    ws.rhs <- Array.make m 0.;
    ws.art <- Array.make m 0.;
    ws.basis <- Array.make m 0;
    ws.y <- Array.make m 0.;
    ws.rho <- Array.make m 0.;
    ws.w <- Array.make m 0.;
    ws.xb <- Array.make m 0.;
    ws.work <- Array.make m 0.;
    ws.b_ptr <- Array.make (m + 1) 0
  end;
  ws

(* The workspace's basis, taking over [lu] with an empty eta file. *)
let install (ws : workspace) lu =
  match ws.fac with
  | Some fac ->
    Basis.reset fac lu;
    fac
  | None ->
    let fac = Basis.create lu in
    ws.fac <- Some fac;
    fac

(* One solve's view of its workspace: the first [m] and [n_total]
   entries of the workspace vectors are this LP's. *)
type state = {
  m : int;                    (* rows *)
  n : int;                    (* structural variables *)
  n_total : int;              (* structural + artificial variables *)
  a : Numerics.Sparse.csc;    (* structural columns *)
  art : float array;
  rhs : float array;
  lo : float array;
  up : float array;
  status : status array;
  basis : int array;
  x : float array;
  cost : float array;
  y : float array;
  rho : float array;
  w : float array;
  xb : float array;
  work : float array;
  fac : Basis.t;
  ws : workspace;
}

let state (ws : workspace) ~m ~n (a : Numerics.Sparse.csc) fac =
  {
    m; n; n_total = n + m; a; art = ws.art; rhs = ws.rhs; lo = ws.lo; up = ws.up;
    status = ws.status; basis = ws.basis; x = ws.x; cost = ws.cost; y = ws.y;
    rho = ws.rho; w = ws.w; xb = ws.xb; work = ws.work; fac; ws;
  }

(* Factor the basis matrix — column [basis.(r)] of [a], or artificial
   unit column [art.(i)·e_i] for variable [n + i], in row [r] — gathered
   into the workspace's compressed buffers.  Raises
   [Numerics.Sparse_lu.Singular]. *)
let factor_basis ws (a : Numerics.Sparse.csc) ~n ~m basis =
  let nnz = ref 0 in
  for r = 0 to m - 1 do
    let j = basis.(r) in
    nnz := !nnz + if j < n then a.col_ptr.(j + 1) - a.col_ptr.(j) else 1
  done;
  if Array.length ws.b_row < !nnz then begin
    ws.b_row <- Array.make !nnz 0;
    ws.b_val <- Array.make !nnz 0.
  end;
  let ptr = ws.b_ptr and rows = ws.b_row and vals = ws.b_val in
  let p = ref 0 in
  for r = 0 to m - 1 do
    let j = basis.(r) in
    if j < n then
      for q = a.col_ptr.(j) to a.col_ptr.(j + 1) - 1 do
        rows.(!p) <- a.row_idx.(q);
        vals.(!p) <- a.values.(q);
        incr p
      done
    else begin
      rows.(!p) <- j - n;
      vals.(!p) <- ws.art.(j - n);
      incr p
    end;
    ptr.(r + 1) <- !p
  done;
  Numerics.Sparse_lu.factor
    (Numerics.Sparse.csc_view ~rows:m ~cols:m ~col_ptr:ptr ~row_idx:rows ~values:vals)

(* Simplex multipliers y = B⁻ᵀ c_B, into [st.y]. *)
let multipliers st c =
  let cb = st.work in
  for r = 0 to st.m - 1 do
    cb.(r) <- c.(st.basis.(r))
  done;
  Basis.btran_into st.fac cb st.y

(* ρ = B⁻ᵀ e_r — row r of the basis inverse, the dual-simplex pricing
   row — into [st.rho]. *)
let btran_unit st r =
  let e = st.work in
  Array.fill e 0 st.m 0.;
  e.(r) <- 1.;
  Basis.btran_into st.fac e st.rho

(* w = B⁻¹ a_j, the entering column, into [st.w]: the column is
   scattered onto zeros and solved. *)
let ftran_column st j =
  let v = st.work in
  Array.fill v 0 st.m 0.;
  (if j < st.n then begin
     let a = st.a in
     for q = a.col_ptr.(j) to a.col_ptr.(j + 1) - 1 do
       let i = a.row_idx.(q) in
       v.(i) <- v.(i) +. a.values.(q)
     done
   end
   else
     let i = j - st.n in
     v.(i) <- v.(i) +. st.art.(i));
  Basis.ftran_into st.fac v st.w

(* Reduced cost c_j − yᵀa_j of variable [j] under the multipliers in
   [st.y]. *)
let[@inline] reduced_cost st c j =
  let y = st.y in
  if j < st.n then begin
    let a = st.a in
    let d = ref c.(j) in
    for q = a.col_ptr.(j) to a.col_ptr.(j + 1) - 1 do
      d := !d -. (y.(a.row_idx.(q)) *. a.values.(q))
    done;
    !d
  end
  else c.(j) -. (y.(j - st.n) *. st.art.(j - st.n))

(* Recompute the values of the basic variables from the nonbasic ones:
   x_B = B⁻¹ (b − N x_N).  Pivots update x incrementally; this exact
   recomputation runs after every refactorization to wash out drift. *)
let recompute_basics st =
  let resid = st.work and x = st.x and a = st.a in
  Array.blit st.rhs 0 resid 0 st.m;
  for j = 0 to st.n_total - 1 do
    match st.status.(j) with
    | Basic -> ()
    | At_lower | At_upper | Free_nb ->
      let xj = x.(j) in
      (* robustlint: allow R1 — exact-zero sparsity skip *)
      if xj <> 0. then
        if j < st.n then
          for q = a.col_ptr.(j) to a.col_ptr.(j + 1) - 1 do
            let i = a.row_idx.(q) in
            resid.(i) <- resid.(i) -. (a.values.(q) *. xj)
          done
        else begin
          let i = j - st.n in
          resid.(i) <- resid.(i) -. (st.art.(i) *. xj)
        end
  done;
  Basis.ftran_into st.fac resid st.xb;
  for r = 0 to st.m - 1 do
    x.(st.basis.(r)) <- st.xb.(r)
  done

(* Rebuild the factorization from scratch: the numerical refresh, and
   the answer to a full eta file. *)
let refactor st =
  Obs.Metrics.incr m_refactors;
  timed_hist h_refactor_ns @@ fun () ->
  Basis.reset st.fac (factor_basis st.ws st.a ~n:st.n ~m:st.m st.basis)

(* Eligible reduced-cost magnitude of variable [j] under objective [c]
   and the multipliers in [st.y]; fixed variables (lo = up) can never
   move and score 0. *)
let[@inline] violation st c j =
  (* robustlint: allow R1 — fixed variables are pinned by exactly equal bounds *)
  if st.lo.(j) = st.up.(j) then 0.
  else
    match st.status.(j) with
    | Basic -> 0.
    | At_lower ->
      let d = reduced_cost st c j in
      if d > tol_d then d else 0.
    | At_upper ->
      let d = reduced_cost st c j in
      if d < -.tol_d then -.d else 0.
    | Free_nb ->
      let d = reduced_cost st c j in
      let a = Float.abs d in
      if a > tol_d then a else 0.

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
  let x = st.x and lo = st.lo and up = st.up and w = st.w in
  while !result = None do
    incr iter;
    if !iter > max_iter then failwith "Simplex.optimize: iteration limit exceeded";
    if Basis.should_refactor st.fac then begin
      refactor st;
      recompute_basics st
    end;
    multipliers st c;
    let entering = ref (-1) in
    if !bland_on then begin
      let j = ref 0 in
      while !entering < 0 && !j < n_total do
        if violation st c !j > 0. then entering := !j;
        incr j
      done
    end
    else begin
      let best = ref tol_d in
      for j = 0 to n_total - 1 do
        let v = violation st c j in
        if v > !best then begin
          best := v;
          entering := j
        end
      done
    end;
    if !entering < 0 then result := Some `Optimal
    else begin
      let j = !entering in
      let dj = reduced_cost st c j in
      let dir =
        match st.status.(j) with
        | At_lower -> 1.
        | At_upper -> -1.
        | Free_nb -> if dj > 0. then 1. else -1.
        | Basic -> assert false
      in
      ftran_column st j;
      (* Ratio test: the entering variable moves by [dir * t], t >= 0. *)
      let t_flip =
        if lo.(j) > neg_infinity && up.(j) < infinity then up.(j) -. lo.(j) else infinity
      in
      let t_best = ref t_flip in
      let leave_row = ref (-1) in
      let leave_to_upper = ref false in
      for r = 0 to st.m - 1 do
        let delta = -.dir *. w.(r) in
        if Float.abs delta > tol_p then begin
          let k = st.basis.(r) in
          let xk = x.(k) in
          if delta > 0. then begin
            if up.(k) < infinity then begin
              let t = Float.max 0. ((up.(k) -. xk) /. delta) in
              if t < !t_best -. 1e-12 || (t <= !t_best && !leave_row >= 0 && Float.abs w.(r) > Float.abs w.(!leave_row)) then begin
                t_best := t;
                leave_row := r;
                leave_to_upper := true
              end
            end
          end
          else if lo.(k) > neg_infinity then begin
            let t = Float.max 0. ((xk -. lo.(k)) /. -.delta) in
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
            x.(k) <- x.(k) -. (step *. w.(r))
          done;
        if !leave_row < 0 then begin
          (* Bound flip: the entering variable runs to its opposite bound;
             the basis is unchanged. *)
          x.(j) <- (if dir > 0. then up.(j) else lo.(j));
          st.status.(j) <- (if dir > 0. then At_upper else At_lower)
        end
        else begin
          let r = !leave_row in
          let k = st.basis.(r) in
          Basis.update st.fac ~row:r w;
          st.basis.(r) <- j;
          st.status.(j) <- Basic;
          x.(j) <- x.(j) +. step;
          st.status.(k) <- (if !leave_to_upper then At_upper else At_lower);
          x.(k) <- (if !leave_to_upper then up.(k) else lo.(k))
        end;
        (* Degenerate-streak bookkeeping for the Bland fallback. *)
        let obj = ref 0. in
        for v = 0 to n_total - 1 do
          obj := !obj +. (c.(v) *. x.(v))
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

(* ρ·a_q: entry [q] of the dual pricing row in [st.rho]. *)
let[@inline] row_entry st q =
  if q < st.n then begin
    let a = st.a and rho = st.rho in
    let acc = ref 0. in
    for p = a.col_ptr.(q) to a.col_ptr.(q + 1) - 1 do
      acc := !acc +. (rho.(a.row_idx.(p)) *. a.values.(p))
    done;
    !acc
  end
  else 0. +. (st.rho.(q - st.n) *. st.art.(q - st.n))

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
  let x = st.x and lo = st.lo and up = st.up and w = st.w in
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
      let xk = x.(k) in
      let slack = tol_f *. (1. +. Float.abs xk) in
      let v =
        if xk < lo.(k) -. slack then lo.(k) -. xk
        else if xk > up.(k) +. slack then xk -. up.(k)
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
      let to_lower = x.(k) < lo.(k) in
      multipliers st c;
      btran_unit st r;
      (* With the leaving variable headed to its lower bound its basic
         value must rise, so the pivot row is used as-is; headed to the
         upper bound everything flips sign. *)
      let s = if to_lower then 1. else -1. in
      let entering = ref (-1) in
      let best_ratio = ref infinity in
      let best_alpha = ref 0. in
      for q = 0 to st.n_total - 1 do
        (* robustlint: allow R1 — fixed variables are pinned by exactly equal bounds *)
        if st.status.(q) <> Basic && lo.(q) <> up.(q) then begin
          let alpha = s *. row_entry st q in
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
              | _ -> Float.max 0. (reduced_cost st c q /. alpha)
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
        else if !worst > 1e3 *. tol_f *. (1. +. Float.abs x.(k)) then
          result := Some `Infeasible
        else result := Some `Dual_unbounded
      end
      else begin
        let j = !entering in
        ftran_column st j;
        if Float.abs w.(r) <= tol_p then begin
          (* The pricing row and the ftran column disagree about the
             pivot magnitude — stale factors; refresh and retry. *)
          refactor st;
          recompute_basics st;
          fresh := true
        end
        else begin
          let bound = if to_lower then lo.(k) else up.(k) in
          let t = (x.(k) -. bound) /. w.(r) in
          incr pivots;
          Obs.Metrics.incr m_pivots;
          Obs.Metrics.incr m_dual_pivots;
          (* robustlint: allow R1 — a degenerate step moves nothing, exactly *)
          if t <> 0. then
            for i = 0 to st.m - 1 do
              let kb = st.basis.(i) in
              x.(kb) <- x.(kb) -. (t *. w.(i))
            done;
          x.(j) <- x.(j) +. t;
          Basis.update st.fac ~row:r w;
          fresh := false;
          st.basis.(r) <- j;
          st.status.(j) <- Basic;
          st.status.(k) <- (if to_lower then At_lower else At_upper);
          x.(k) <- bound;
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
  b_lu : (Numerics.Sparse.csc * Numerics.Sparse_lu.t) option;
}

(* Factor the basis of rows 0..m-1; [None] on a singular basis
   matrix. *)
let factor_opt ws a ~n ~m basis =
  match factor_basis ws a ~n ~m basis with
  | exception Numerics.Sparse_lu.Singular -> None
  | lu -> Some lu

(* Whether columns [rows] of [a] and [b] hold the same entries in the
   same order, values compared by their bits: [Sparse_lu.factor] is a
   deterministic function of exactly this, so equal columns have equal
   factorizations. *)
let same_columns (a : Numerics.Sparse.csc) (b : Numerics.Sparse.csc) rows =
  a == b
  || Array.for_all
       (fun j ->
         let pa = a.col_ptr.(j) and pb = b.col_ptr.(j) in
         let len = a.col_ptr.(j + 1) - pa in
         len = b.col_ptr.(j + 1) - pb
         &&
         let same = ref true in
         for q = 0 to len - 1 do
           if
             a.row_idx.(pa + q) <> b.row_idx.(pb + q)
             || not
                  (Int64.equal
                     (Int64.bits_of_float a.values.(pa + q))
                     (Int64.bits_of_float b.values.(pb + q)))
           then same := false
         done;
         !same)
       rows

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
let warm_state (spec : spec) basis =
  let m = spec.n_rows in
  let n = spec.cols.cs_cols in
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
      let ws = workspace ~m ~n_total:(n + m) in
      Array.blit spec.lo 0 ws.lo 0 n;
      Array.blit spec.up 0 ws.up 0 n;
      Array.blit basis.b_status 0 ws.status 0 n;
      for j = 0 to n - 1 do
        ws.x.(j) <-
          (match ws.status.(j) with
          | Basic | Free_nb -> 0.
          | At_lower -> ws.lo.(j)
          | At_upper -> ws.up.(j))
      done;
      for i = 0 to m - 1 do
        ws.lo.(n + i) <- 0.;
        ws.up.(n + i) <- 0.;
        ws.status.(n + i) <- At_lower;
        ws.x.(n + i) <- 0.;
        ws.art.(i) <- 1.
      done;
      Array.blit spec.rhs 0 ws.rhs 0 m;
      Array.blit basis.b_rows 0 ws.basis 0 m;
      let lu =
        match basis.b_lu with
        | Some (cols, lu) when same_columns cols spec.cols basis.b_rows ->
          Obs.Metrics.incr m_factor_reuses;
          Some lu
        | _ -> factor_opt ws spec.cols ~n ~m ws.basis
      in
      match lu with
      | None -> Error `Singular
      | Some lu ->
        let st = state ws ~m ~n spec.cols (install ws lu) in
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
  multipliers st c;
  let ok = ref true in
  for j = 0 to st.n_total - 1 do
    (* robustlint: allow R1 — fixed variables are pinned by exactly equal bounds *)
    if st.status.(j) <> Basic && st.lo.(j) <> st.up.(j) then begin
      let d = reduced_cost st c j in
      let slack = tol_f *. (1. +. Float.abs c.(j)) in
      match st.status.(j) with
      | At_lower -> if d > slack then ok := false
      | At_upper -> if d < -.slack then ok := false
      | Free_nb -> if Float.abs d > slack then ok := false
      | Basic -> ()
    end
  done;
  !ok

(* Extract the reusable part of a solved state, copied out of the
   workspace: only structural-variable bases survive (a basic
   artificial would not transfer).  The LU rides along while it is the
   plain factorization of the basic columns of [st.a]. *)
let basis_of st =
  let structural = ref true in
  for r = 0 to st.m - 1 do
    if st.basis.(r) >= st.n then structural := false
  done;
  if not !structural then None
  else
    Some
      {
        b_status = Array.sub st.status 0 st.n;
        b_rows = Array.sub st.basis 0 st.m;
        b_lu = Option.map (fun lu -> (st.a, lu)) (Basis.fresh_lu st.fac);
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

(* The cost vector of phase 2: the spec's objective, 0 on the
   artificials. *)
let phase2_cost (spec : spec) st =
  Array.blit spec.obj 0 st.cost 0 st.n;
  Array.fill st.cost st.n st.m 0.;
  st.cost

let cold_solve (spec : spec) ~pivots ~finish ~phase2 =
  let m = spec.n_rows in
  let a = spec.cols in
  let n = a.cs_cols in
  let n_total = n + m in
  let ws = workspace ~m ~n_total in
  let lo = ws.lo and up = ws.up and status = ws.status and x = ws.x in
  Array.blit spec.lo 0 lo 0 n;
  Array.blit spec.up 0 up 0 n;
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
  let resid = ws.work in
  Array.blit spec.rhs 0 resid 0 m;
  for j = 0 to n - 1 do
    (* robustlint: allow R1 — exact-zero sparsity skip while building the residual *)
    if x.(j) <> 0. then
      for q = a.col_ptr.(j) to a.col_ptr.(j + 1) - 1 do
        let i = a.row_idx.(q) in
        resid.(i) <- resid.(i) -. (a.values.(q) *. x.(j))
      done
  done;
  for i = 0 to m - 1 do
    ws.art.(i) <- (if resid.(i) >= 0. then 1. else -1.);
    lo.(n + i) <- 0.;
    up.(n + i) <- infinity;
    status.(n + i) <- Basic;
    x.(n + i) <- Float.abs resid.(i);
    ws.basis.(i) <- n + i
  done;
  Array.blit spec.rhs 0 ws.rhs 0 m;
  let lu =
    match factor_opt ws a ~n ~m ws.basis with
    | Some lu -> lu
    | None -> invalid_arg "Simplex.solve: artificial basis cannot be singular"
  in
  let st = state ws ~m ~n a (install ws lu) in
  (* Phase 1: minimize the sum of artificials. *)
  let c1 = st.cost in
  Array.fill c1 0 n 0.;
  Array.fill c1 n m (-1.);
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
      up.(n + i) <- 0.;
      if status.(n + i) <> Basic then begin
        status.(n + i) <- At_lower;
        x.(n + i) <- 0.
      end
    done;
    finish st (phase2 st)
  end

let validate (spec : spec) =
  let m = spec.n_rows in
  let n = spec.cols.cs_cols in
  if spec.cols.cs_rows <> m then invalid_arg "Simplex.solve: matrix rows differ from n_rows";
  if Array.length spec.rhs <> m then invalid_arg "Simplex.solve: rhs length mismatch";
  if not (Array.length spec.obj = n && Array.length spec.lo = n && Array.length spec.up = n)
  then invalid_arg "Simplex.solve: obj/lo/up length mismatch"

let solve ?basis (spec : spec) =
  Obs.Metrics.incr m_solves;
  Obs.Span.with_span "simplex.solve" @@ fun () ->
  validate spec;
  let n = spec.cols.cs_cols in
  let pivots = ref 0 in
  let finish st outcome =
    Obs.Metrics.observe h_pivots (float_of_int !pivots);
    let carry = match outcome with Optimal _ -> basis_of st | _ -> None in
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
  let phase2 st =
    match timed m_phase2_ns (fun () -> optimize ~pivots st (phase2_cost spec st)) with
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
      let c2 = phase2_cost spec st in
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
