type rhs = float -> Vec.t -> Vec.t -> unit

type stats = { steps : int; rejected : int; evals : int }

type result = { t : float; y : Vec.t; stats : stats }

exception Step_underflow of float

exception Deadline of float

(* Observability probes.  Registered once at module init; every probe is
   a no-op behind a single atomic load until [Obs.Metrics.set_enabled]
   flips the flag, so the solvers stay uninstrumented-speed in
   normal runs (see the metrics-overhead bench kernel). *)
let m_steps = Obs.Metrics.counter "ode.steps"
let m_rejected = Obs.Metrics.counter "ode.rejected"
let m_rhs_evals = Obs.Metrics.counter "ode.rhs_evals"
let m_jacobians = Obs.Metrics.counter "ode.jacobians"
let m_underflows = Obs.Metrics.counter "ode.underflows"
let m_deadlines = Obs.Metrics.counter "ode.deadlines"
let m_integrations = Obs.Metrics.counter "ode.integrations"

let underflow t =
  Obs.Metrics.incr m_underflows;
  raise (Step_underflow t)

(* Cooperative watchdog: the step loops poll the wall clock against an
   absolute [Obs.Clock.now_ns] deadline and raise {!Deadline} when past
   it.  The raise is meant to be absorbed by a [Runtime.Guard] (a stalled
   evaluation degrades to a penalty instead of hanging the island).  By
   construction this is wall-clock-dependent, so deadlines are opt-in and
   never enabled on paths that promise bit-for-bit determinism. *)
let check_deadline deadline t =
  match deadline with
  | Some limit when Obs.Clock.now_ns () > limit ->
    Obs.Metrics.incr m_deadlines;
    raise (Deadline t)
  | _ -> ()

(* Dormand–Prince 5(4) Butcher tableau. *)
let dp_c = [| 0.; 0.2; 0.3; 0.8; 8. /. 9.; 1.; 1. |]

let dp_a =
  [|
    [||];
    [| 0.2 |];
    [| 3. /. 40.; 9. /. 40. |];
    [| 44. /. 45.; -56. /. 15.; 32. /. 9. |];
    [| 19372. /. 6561.; -25360. /. 2187.; 64448. /. 6561.; -212. /. 729. |];
    [| 9017. /. 3168.; -355. /. 33.; 46732. /. 5247.; 49. /. 176.; -5103. /. 18656. |];
    [| 35. /. 384.; 0.; 500. /. 1113.; 125. /. 192.; -2187. /. 6784.; 11. /. 84. |];
  |]

let dp_b5 = [| 35. /. 384.; 0.; 500. /. 1113.; 125. /. 192.; -2187. /. 6784.; 11. /. 84.; 0. |]

let dp_b4 =
  [|
    5179. /. 57600.; 0.; 7571. /. 16695.; 393. /. 640.; -92097. /. 339200.; 187. /. 2100.; 1. /. 40.;
  |]

(* Add one integration's attempt counts to the shared counters.  Called
   once on every exit (normal return, [Step_underflow], [Deadline], an
   exception from the rhs) rather than once per stage: a traced leaf run
   otherwise makes millions of contended atomic increments from every
   domain, for the same totals. *)
let add_counts ~steps ~rejected ~evals =
  Obs.Metrics.add m_steps steps;
  Obs.Metrics.add m_rejected rejected;
  Obs.Metrics.add m_rhs_evals evals

(* Unchecked float-vector access for the step loops, whose lengths are
   all fixed at entry. *)
let[@inline] get (v : Vec.t) i = Array.unsafe_get v i
let[@inline] set (v : Vec.t) i x = Array.unsafe_set v i x

let h_min = 1e-14

(* Allocation-free Dormand–Prince: the seven stage vectors, the stage
   state and the two state buffers are allocated once per call, and the
   step loop writes into them.  First-same-as-last: stage 7 is evaluated
   at y + h·Σ a₇ⱼkⱼ, and a₇ⱼ = b₅ⱼ with b₅₇ = 0, so its state is the
   accepted y₅ bit for bit (both sums start from +0. and so never hold
   −0.).  After an accepted step the old stage 7 therefore {e is} the
   next step's stage 1, and its buffer is swapped in; after a rejected
   step stage 1 is still f(t, y).  Each attempt costs six rhs
   evaluations, plus one per call for the first stage.  Stage 1 is
   evaluated at [y] itself rather than at y + h·0, which differs only in
   the sign of a −0. entry.  The step starts at 1/100 of the span and
   stays within [h_min, span]. *)
let max_steps = 1_000_000

let dopri5 ?(rtol = 1e-6) ?(atol = 1e-9) ?deadline ~f ~t0 ~t1 ~y0 () =
  let n = Array.length y0 in
  if not (t1 >= t0) then invalid_arg "Ode.dopri5: need t1 >= t0";
  Obs.Metrics.incr m_integrations;
  Obs.Span.with_span "ode.integrate" @@ fun () ->
  let span = t1 -. t0 in
  let h = ref (span /. 100.) in
  let t = ref t0 in
  let y = ref (Array.copy y0) in
  let y_next = ref (Array.make n 0.) in
  let k = Array.init 7 (fun _ -> Array.make n 0.) in
  let stage_y = Array.make n 0. in
  let c2 = dp_c.(1) and c3 = dp_c.(2) and c4 = dp_c.(3) and c5 = dp_c.(4) and c6 = dp_c.(5)
  and c7 = dp_c.(6) in
  let a21 = dp_a.(1).(0) in
  let a31 = dp_a.(2).(0) and a32 = dp_a.(2).(1) in
  let a41 = dp_a.(3).(0) and a42 = dp_a.(3).(1) and a43 = dp_a.(3).(2) in
  let a51 = dp_a.(4).(0) and a52 = dp_a.(4).(1) and a53 = dp_a.(4).(2)
  and a54 = dp_a.(4).(3) in
  let a61 = dp_a.(5).(0) and a62 = dp_a.(5).(1) and a63 = dp_a.(5).(2)
  and a64 = dp_a.(5).(3) and a65 = dp_a.(5).(4) in
  let a71 = dp_a.(6).(0) and a72 = dp_a.(6).(1) and a73 = dp_a.(6).(2)
  and a74 = dp_a.(6).(3) and a75 = dp_a.(6).(4) and a76 = dp_a.(6).(5) in
  let b51 = dp_b5.(0) and b52 = dp_b5.(1) and b53 = dp_b5.(2) and b54 = dp_b5.(3)
  and b55 = dp_b5.(4) and b56 = dp_b5.(5) and b57 = dp_b5.(6) in
  let b41 = dp_b4.(0) and b42 = dp_b4.(1) and b43 = dp_b4.(2) and b44 = dp_b4.(3)
  and b45 = dp_b4.(4) and b46 = dp_b4.(5) and b47 = dp_b4.(6) in
  let accepted = ref 0 and rejected = ref 0 and evals = ref 1 in
  match
    f t0 !y k.(0);
    while !t < t1 do
      check_deadline deadline !t;
      if !accepted + !rejected > max_steps then underflow !t;
      let h_cur = Float.min !h (t1 -. !t) in
      (* Written so that a NaN step, left by a NaN error estimate, also
         underflows instead of being rejected until [max_steps]. *)
      if not (h_cur >= h_min) then underflow !t;
      let yc = !y in
      (* Stages 2..7, written out; stage 1 is already in k1.  Each stage
         sum starts at +0. and adds aₛⱼ·kⱼ in j order, zero coefficients
         included, so NaNs and signed zeros flow as the FSAL argument
         above needs. *)
      let k1 = k.(0) and k2 = k.(1) and k3 = k.(2) and k4 = k.(3) and k5 = k.(4)
      and k6 = k.(5) and k7 = k.(6) in
      for i = 0 to n - 1 do
        let acc = 0. +. (a21 *. get k1 i) in
        set stage_y i (get yc i +. (h_cur *. acc))
      done;
      f (!t +. (c2 *. h_cur)) stage_y k2;
      for i = 0 to n - 1 do
        let acc = 0. +. (a31 *. get k1 i) +. (a32 *. get k2 i) in
        set stage_y i (get yc i +. (h_cur *. acc))
      done;
      f (!t +. (c3 *. h_cur)) stage_y k3;
      for i = 0 to n - 1 do
        let acc = 0. +. (a41 *. get k1 i) +. (a42 *. get k2 i) +. (a43 *. get k3 i) in
        set stage_y i (get yc i +. (h_cur *. acc))
      done;
      f (!t +. (c4 *. h_cur)) stage_y k4;
      for i = 0 to n - 1 do
        let acc =
          0. +. (a51 *. get k1 i) +. (a52 *. get k2 i) +. (a53 *. get k3 i) +. (a54 *. get k4 i)
        in
        set stage_y i (get yc i +. (h_cur *. acc))
      done;
      f (!t +. (c5 *. h_cur)) stage_y k5;
      for i = 0 to n - 1 do
        let acc =
          0. +. (a61 *. get k1 i) +. (a62 *. get k2 i) +. (a63 *. get k3 i) +. (a64 *. get k4 i)
          +. (a65 *. get k5 i)
        in
        set stage_y i (get yc i +. (h_cur *. acc))
      done;
      f (!t +. (c6 *. h_cur)) stage_y k6;
      for i = 0 to n - 1 do
        let acc =
          0. +. (a71 *. get k1 i) +. (a72 *. get k2 i) +. (a73 *. get k3 i) +. (a74 *. get k4 i)
          +. (a75 *. get k5 i) +. (a76 *. get k6 i)
        in
        set stage_y i (get yc i +. (h_cur *. acc))
      done;
      f (!t +. (c7 *. h_cur)) stage_y k7;
      evals := !evals + 6;
      (* 5th-order solution and embedded error estimate. *)
      let y5 = !y_next in
      let err = ref 0. in
      for i = 0 to n - 1 do
        let k1i = get k1 i and k2i = get k2 i and k3i = get k3 i and k4i = get k4 i
        and k5i = get k5 i and k6i = get k6 i and k7i = get k7 i in
        let s5 =
          0. +. (b51 *. k1i) +. (b52 *. k2i) +. (b53 *. k3i) +. (b54 *. k4i) +. (b55 *. k5i)
          +. (b56 *. k6i) +. (b57 *. k7i)
        and s4 =
          0. +. (b41 *. k1i) +. (b42 *. k2i) +. (b43 *. k3i) +. (b44 *. k4i) +. (b45 *. k5i)
          +. (b46 *. k6i) +. (b47 *. k7i)
        in
        let yi = get yc i in
        let y5i = yi +. (h_cur *. s5) in
        set y5 i y5i;
        let e = h_cur *. (s5 -. s4) in
        (* [Float.max (Float.abs yi) (Float.abs y5i)], bit for bit: both
           signs are clear, so the stdlib's signed-zero case never fires
           and a NaN in either operand is returned. *)
        let a = Float.abs yi and b = Float.abs y5i in
        let m = if b > a then b else if Float.is_nan b then b else a in
        let r = e /. (atol +. (rtol *. m)) in
        err := !err +. (r *. r)
      done;
      let err = sqrt (!err /. float_of_int n) in
      if err <= 1. || h_cur <= h_min *. 2. then begin
        t := !t +. h_cur;
        y_next := yc;
        y := y5;
        (* FSAL: the old stage 7 is f(t, y) at the new (t, y). *)
        let k1 = k.(0) in
        k.(0) <- k.(6);
        k.(6) <- k1;
        incr accepted
      end
      else incr rejected;
      (* Standard controller with safety factor and growth limits. *)
      let fac =
        (* robustlint: allow R1 — the controller divides by err^0.2, so guard exact zero *)
        if err = 0. then 5. else Float.min 5. (Float.max 0.2 (0.9 *. (err ** (-0.2))))
      in
      h := Float.min span (Float.max h_min (h_cur *. fac))
    done
  with
  | () ->
    add_counts ~steps:!accepted ~rejected:!rejected ~evals:!evals;
    { t = !t; y = !y; stats = { steps = !accepted; rejected = !rejected; evals = !evals } }
  | exception e ->
    add_counts ~steps:!accepted ~rejected:!rejected ~evals:!evals;
    raise e

(* [1e-7 *. Float.max 1. |y|] and [Float.max 0. x], bit for bit (a NaN
   passes through), but inlined: the stdlib's [Float.max] is a call that
   boxes its result, once per Jacobian column or state component. *)
let[@inline] fd_step yj =
  let a = Float.abs yj in
  1e-7 *. if a > 1. then a else if Float.is_nan a then a else 1.

let[@inline] pos x = if x > 0. then x else if Float.is_nan x then x else 0.

(* {1 Jacobian sparsity} *)

type pattern = {
  rows : int array array;  (** rows.(j): the derivatives state j can change *)
  groups : int array array;  (** column groups, no two columns sharing a row *)
}

(* Curtis–Powell–Reid grouping, greedy in column order: each column joins
   the first group none of whose columns shares a row with it. *)
let pattern rows =
  let n = Array.length rows in
  Array.iter
    (Array.iter (fun i -> if i < 0 || i >= n then invalid_arg "Ode.pattern: row out of range"))
    rows;
  let taken = Array.make_matrix n n false and group = Array.make n 0 and count = ref 0 in
  for j = 0 to n - 1 do
    let fits g = Array.for_all (fun i -> not taken.(g).(i)) rows.(j) in
    let g = ref 0 in
    while !g < !count && not (fits !g) do
      incr g
    done;
    if !g = !count then incr count;
    Array.iter (fun i -> taken.(!g).(i) <- true) rows.(j);
    group.(j) <- !g
  done;
  let members g = List.filter (fun j -> group.(j) = g) (List.init n Fun.id) in
  {
    rows = Array.map Array.copy rows;
    groups = Array.init !count (fun g -> Array.of_list (members g));
  }

let pattern_groups p = Array.length p.groups

(* {1 Dense Newton kernel}

   The dense forward-difference Newton machinery of pseudo-transient
   continuation (whose Jacobian kernel {!numeric_jacobian} also runs).
   Its buffers are allocated once per PTC call and
   rewritten in place: the n×n Jacobian (then the Newton matrix, then its
   LU factors), the pivot vector and four scratch vectors.  For n = 24
   the matrix is 576 floats, above the minor heap's 256-word limit, so
   allocating it per iteration would churn the major heap. *)

type dense = {
  n : int;
  jac : float array;  (** row-major n×n *)
  perm : int array;
  f0 : Vec.t;  (** rhs at the current iterate *)
  fj : Vec.t;  (** rhs at a perturbed state *)
  yp : Vec.t;  (** perturbed state *)
  x : Vec.t;  (** Newton correction *)
}

let dense_create n =
  let v () = Array.make n 0. in
  { n; jac = Array.make (n * n) 0.; perm = Array.make n 0; f0 = v (); fj = v (); yp = v (); x = v () }

(* Forward-difference Jacobian of [f] at [(t, y)] into [d.jac], given
   [f0 = f t y]: one rhs evaluation per column group of [p], with every
   column of the group perturbed at once.  Entry (i, j) of the pattern
   is (fᵢ(y + Σ hₖeₖ) − f0ᵢ)/hⱼ over j's group, which is the dense
   quotient because fᵢ reads no other column of the group; every other
   entry is +0., which the dense quotient (fᵢ − fᵢ)/hⱼ also is wherever
   [f0] is finite.  Under a dense pattern (one column per group) this is
   the plain n-call forward difference. *)
let jacobian d p f t y f0 =
  Obs.Metrics.incr m_jacobians;
  let n = d.n and yp = d.yp and fj = d.fj and jac = d.jac in
  Array.blit y 0 yp 0 n;
  Array.fill jac 0 (n * n) 0.;
  for g = 0 to Array.length p.groups - 1 do
    let cols = Array.unsafe_get p.groups g in
    for c = 0 to Array.length cols - 1 do
      let j = Array.unsafe_get cols c in
      let yj = get y j in
      set yp j (yj +. fd_step yj)
    done;
    f t yp fj;
    for c = 0 to Array.length cols - 1 do
      let j = Array.unsafe_get cols c in
      let yj = get y j in
      set yp j yj;
      let h = fd_step yj and rows = Array.unsafe_get p.rows j in
      for r = 0 to Array.length rows - 1 do
        let i = Array.unsafe_get rows r in
        set jac ((i * n) + j) ((get fj i -. get f0 i) /. h)
      done
    done
  done

(* Overwrite the Jacobian with the Newton matrix diag·I − J and factor
   it in place; false when it is singular. *)
let dense_factor d ~diag =
  let n = d.n and jac = d.jac in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let at = (i * n) + k in
      Array.unsafe_set jac at ((if i = k then diag else 0.) -. Array.unsafe_get jac at)
    done
  done;
  match Lu.factor_in_place ~n jac d.perm with () -> true | exception Lu.Singular -> false

(* d.x <- M⁻¹·b with the factors of the last {!dense_factor}. *)
let dense_solve d b = Lu.solve_in_place ~n:d.n d.jac d.perm b d.x

let check_pattern name p n =
  if Array.length p.rows <> n then invalid_arg (name ^ ": pattern size differs from the state's")

let numeric_jacobian ~pattern f t y =
  let n = Array.length y in
  check_pattern "Ode.numeric_jacobian" pattern n;
  let d = dense_create n in
  f t y d.f0;
  jacobian d pattern f t y d.f0;
  Matrix.init n n (fun i j -> d.jac.((i * n) + j))

(* {1 Pseudo-transient continuation}

   Implicit-Euler steps (I/Δt − J)·δ = f(y) toward f(y) = 0, with the
   pseudo-time step grown by the residual ratio (switched evolution
   relaxation).  Small early steps follow the trajectory, so the
   iteration tends to an attractor rather than to any root; large late
   steps are Newton steps. *)

let m_ptc_calls = Obs.Metrics.counter "ode.ptc.calls"
let m_ptc_iterations = Obs.Metrics.counter "ode.ptc.iterations"
let m_ptc_unstable = Obs.Metrics.counter "ode.ptc.unstable"

type ptc = { root : Vec.t option; iterations : int }

type ptc_state = Iterating | Converged | Gave_up

let ptc_max_iterations = 200
let ptc_dt0 = 1.
let ptc_dt_max = 1e8
let ptc_rtol = 1e-10
let ptc_atol = 1e-8
let ptc_to_boundary = 0.99

(* The root certificate: the forward-difference Jacobian at the root,
   given [f0 = f 0 y], and its eigenvalues, all in the Newton workspace.
   The kernel overwrites [d.jac] and writes the spectrum into [d.fj] and
   [d.yp], which the Jacobian no longer needs.  Stable when every
   eigenvalue has a negative real part; a spectrum the QR iteration
   could not finish certifies nothing. *)
let stable_root d pattern f y f0 =
  jacobian d pattern f 0. y f0;
  let wr = d.fj and wi = d.yp in
  Eigen.eigenvalues_in_place ~n:d.n d.jac wr wi
  &&
  let stable = ref true in
  for i = 0 to d.n - 1 do
    if not (Array.unsafe_get wr i < 0.) then stable := false
  done;
  !stable

let pseudo_transient ?deadline ~pattern ~f ~y0 () =
  Obs.Metrics.incr m_ptc_calls;
  Obs.Span.with_span "ode.ptc" @@ fun () ->
  let n = Array.length y0 in
  check_pattern "Ode.pseudo_transient" pattern n;
  let d = dense_create n in
  let y = Array.copy y0 in
  let fy = d.f0 and step = d.x in
  let dt = ref ptc_dt0 and r_prev = ref 0. and tau = ref 0. in
  let iterations = ref 0 and evals = ref 0 in
  let state = ref Iterating in
  let count () =
    Obs.Metrics.add m_ptc_iterations !iterations;
    Obs.Metrics.add m_rhs_evals !evals
  in
  match
    while !state = Iterating do
      f 0. y fy;
      incr evals;
      (* ∞-norms; a NaN entry sticks. *)
      let fnorm = ref 0. and ynorm = ref 0. in
      for i = 0 to n - 1 do
        let a = Float.abs (Array.unsafe_get fy i) and b = Float.abs (Array.unsafe_get y i) in
        if a > !fnorm || Float.is_nan a then fnorm := a;
        if b > !ynorm || Float.is_nan b then ynorm := b
      done;
      let r = !fnorm /. (!ynorm +. 1.) in
      if not (Float.is_finite r && Float.is_finite !ynorm) then state := Gave_up
      else if r < ptc_rtol && !fnorm <= ptc_atol then begin
        evals := !evals + pattern_groups pattern;
        if stable_root d pattern f y fy then state := Converged
        else begin
          Obs.Metrics.incr m_ptc_unstable;
          state := Gave_up
        end
      end
      else if !iterations >= ptc_max_iterations then state := Gave_up
      else begin
        check_deadline deadline !tau;
        if !iterations > 0 then dt := Float.min ptc_dt_max (!dt *. !r_prev /. r);
        r_prev := r;
        jacobian d pattern f 0. y fy;
        evals := !evals + pattern_groups pattern;
        if not (dense_factor d ~diag:(1. /. !dt)) then state := Gave_up
        else begin
          dense_solve d fy;
          (* Fraction to the boundary: no positive state crosses zero. *)
          let alpha = ref 1. in
          for i = 0 to n - 1 do
            let yi = Array.unsafe_get y i and si = Array.unsafe_get step i in
            if yi > 0. && yi +. si < 0. then
              alpha := Float.min !alpha (ptc_to_boundary *. yi /. -.si)
          done;
          for i = 0 to n - 1 do
            Array.unsafe_set y i (pos (Array.unsafe_get y i +. (!alpha *. Array.unsafe_get step i)))
          done;
          tau := !tau +. (!alpha *. !dt);
          (* A step the boundary cut short also shortens the next one:
             otherwise Δt keeps growing while a pool heads to zero and
             every later step is cut to a sliver. *)
          if !alpha < 1. then dt := !alpha *. !dt;
          incr iterations
        end
      end
    done
  with
  | () ->
    count ();
    { root = (if !state = Converged then Some y else None); iterations = !iterations }
  | exception e ->
    count ();
    raise e
