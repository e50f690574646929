(* Factorized simplex basis: a sparse LU (Markowitz pivoting, see
   [Numerics.Sparse_lu]) maintained across pivots by a product-form eta
   file.

   After a pivot that makes column [a] basic in row position [r], the
   new basis is B' = B·E with E the identity whose column [r] is
   w = B⁻¹a — exactly the vector the simplex iteration already computed
   for its ratio test, so an update costs only the copy of w's nonzeros.
   Solves apply the eta file around the base factorization:
     ftran:  x = Eₖ⁻¹ … E₁⁻¹ (LU)⁻¹ b      (oldest eta first)
     btran:  y = (LU)⁻ᵀ E₁⁻ᵀ … Eₖ⁻ᵀ c      (newest eta first)
   Every eta adds O(nnz(w)) work to {e both} triangular legs of every
   subsequent solve, and every leg walks fixed entry arrays in fixed
   order, so each solve is a bit-for-bit deterministic function of the
   basis history.

   The eta file is flat: eta k is pivot row [e_row.(k)], pivot
   [e_diag.(k)] and the off-pivot entries [e_start.(k)] to
   [e_start.(k+1) - 1] of [e_idx]/[e_val], ascending by position.  The
   buffers only grow, so one [t] carries any number of solves without
   allocating past its largest eta file.

   Updates trade pivot cost against solve cost; [should_refactor] says
   when the accumulated eta work calls for refactorizing; the caller —
   who owns the basis columns — answers with {!reset}. *)

type t = {
  mutable m : int;
  mutable lu : Numerics.Sparse_lu.t;
  mutable n_etas : int;
  mutable e_row : int array;
  mutable e_diag : float array;
  mutable e_start : int array;  (* n_etas + 1 used; e_start.(0) = 0 *)
  mutable e_idx : int array;
  mutable e_val : float array;
}

let g_eta_len = Obs.Metrics.gauge "simplex.eta_len"

let create lu =
  {
    m = Numerics.Sparse_lu.dim lu;
    lu;
    n_etas = 0;
    e_row = Array.make 16 0;
    e_diag = Array.make 16 0.;
    e_start = Array.make 17 0;
    e_idx = Array.make 64 0;
    e_val = Array.make 64 0.;
  }

let reset b lu =
  b.m <- Numerics.Sparse_lu.dim lu;
  b.lu <- lu;
  b.n_etas <- 0;
  Obs.Metrics.set_gauge g_eta_len 0.

let fresh_lu b = if b.n_etas = 0 then Some b.lu else None

let eta_nnz b = b.e_start.(b.n_etas)

(* Refactorize once the eta file holds about as many nonzeros as the
   base factors themselves (cheap updates postpone it, dense ones hasten
   it), or unconditionally past 2·√m updates — the point where the
   per-solve overhead starts to rival a fresh Markowitz factorization of
   a typical stoichiometric basis. *)
let should_refactor b =
  let cap = max 16 (2 * int_of_float (Float.sqrt (float_of_int b.m))) in
  b.n_etas >= cap || eta_nnz b > Numerics.Sparse_lu.nnz b.lu + (4 * b.m)

let grow_int a len = Array.append a (Array.make (max 16 len) 0)
let grow_float a len = Array.append a (Array.make (max 16 len) 0.)

let update b ~row w =
  if not (0 <= row && row < b.m) then invalid_arg "Lp.Basis.update: row out of range";
  (* robustlint: allow R1 — guard against a structurally impossible exactly-zero pivot *)
  if w.(row) = 0. then invalid_arg "Lp.Basis.update: zero pivot";
  let k = b.n_etas in
  if k + 1 >= Array.length b.e_row then begin
    b.e_row <- grow_int b.e_row k;
    b.e_diag <- grow_float b.e_diag k;
    b.e_start <- grow_int b.e_start (k + 1)
  end;
  let p = ref b.e_start.(k) in
  if !p + b.m > Array.length b.e_idx then begin
    b.e_idx <- grow_int b.e_idx (!p + b.m);
    b.e_val <- grow_float b.e_val (!p + b.m)
  end;
  for i = 0 to b.m - 1 do
    (* robustlint: allow R1 — exact-zero sparsity skip over the computed column *)
    if i <> row && w.(i) <> 0. then begin
      b.e_idx.(!p) <- i;
      b.e_val.(!p) <- w.(i);
      incr p
    end
  done;
  b.e_row.(k) <- row;
  b.e_diag.(k) <- w.(row);
  b.e_start.(k + 1) <- !p;
  b.n_etas <- k + 1;
  Obs.Metrics.set_gauge g_eta_len (float_of_int b.n_etas)

(* E⁻¹ v in place, oldest eta first: t = v_r / w_r;  v_i -= w_i t;
   v_r = t. *)
let ftran_into b rhs x =
  Numerics.Sparse_lu.solve_into b.lu rhs x;
  for k = 0 to b.n_etas - 1 do
    let r = b.e_row.(k) in
    let t = x.(r) /. b.e_diag.(k) in
    (* robustlint: allow R1 — exact-zero sparsity skip *)
    if t <> 0. then
      for q = b.e_start.(k) to b.e_start.(k + 1) - 1 do
        let i = b.e_idx.(q) in
        x.(i) <- x.(i) -. (b.e_val.(q) *. t)
      done;
    x.(r) <- t
  done

(* E⁻ᵀ c in place, newest eta first: c_r = (c_r − Σ w_i c_i) / w_r,
   other entries kept. *)
let btran_into b c y =
  for k = b.n_etas - 1 downto 0 do
    let r = b.e_row.(k) in
    let acc = ref c.(r) in
    for q = b.e_start.(k) to b.e_start.(k + 1) - 1 do
      acc := !acc -. (b.e_val.(q) *. c.(b.e_idx.(q)))
    done;
    c.(r) <- !acc /. b.e_diag.(k)
  done;
  Numerics.Sparse_lu.solve_t_into b.lu c y
