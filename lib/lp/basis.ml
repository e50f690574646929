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

   Updates trade pivot cost against solve cost; [should_refactor] says
   when the accumulated eta work calls for refactorizing; the caller —
   who owns the basis columns — answers with {!refactor}. *)

type eta = {
  e_row : int;               (* pivot position r *)
  e_diag : float;            (* w.(r) *)
  e_off : (int * float) array;  (* off-pivot nonzeros of w, ascending position *)
}

type t = {
  m : int;
  mutable lu : Numerics.Sparse_lu.t;
  mutable etas : eta list;   (* newest first *)
  mutable n_etas : int;
  mutable eta_nnz : int;     (* total stored off-diagonal eta entries *)
}

let g_eta_len = Obs.Metrics.gauge "simplex.eta_len"

let of_lu lu = { m = Numerics.Sparse_lu.dim lu; lu; etas = []; n_etas = 0; eta_nnz = 0 }

let factor cols = of_lu (Numerics.Sparse_lu.factor cols)

let fresh_lu b = if b.n_etas = 0 then Some b.lu else None

let refactor b cols =
  if Array.length cols <> b.m then invalid_arg "Lp.Basis.refactor: dimension changed";
  b.lu <- Numerics.Sparse_lu.factor cols;
  b.etas <- [];
  b.n_etas <- 0;
  b.eta_nnz <- 0;
  Obs.Metrics.set_gauge g_eta_len 0.

(* Refactorize once the eta file holds about as many nonzeros as the
   base factors themselves (cheap updates postpone it, dense ones hasten
   it), or unconditionally past 2·√m updates — the point where the
   per-solve overhead starts to rival a fresh Markowitz factorization of
   a typical stoichiometric basis. *)
let should_refactor b =
  let cap = max 16 (2 * int_of_float (Float.sqrt (float_of_int b.m))) in
  b.n_etas >= cap || b.eta_nnz > Numerics.Sparse_lu.nnz b.lu + (4 * b.m)

let update b ~row w =
  if not (0 <= row && row < b.m) then invalid_arg "Lp.Basis.update: row out of range";
  (* robustlint: allow R1 — guard against a structurally impossible exactly-zero pivot *)
  if w.(row) = 0. then invalid_arg "Lp.Basis.update: zero pivot";
  let off = ref [] in
  for i = b.m - 1 downto 0 do
    (* robustlint: allow R1 — exact-zero sparsity skip over the computed column *)
    if i <> row && w.(i) <> 0. then off := (i, w.(i)) :: !off
  done;
  let e_off = Array.of_list !off in
  b.etas <- { e_row = row; e_diag = w.(row); e_off } :: b.etas;
  b.n_etas <- b.n_etas + 1;
  b.eta_nnz <- b.eta_nnz + Array.length e_off;
  Obs.Metrics.set_gauge g_eta_len (float_of_int b.n_etas)

(* E⁻¹ v in place: t = v_r / w_r;  v_i -= w_i t;  v_r = t. *)
let apply_eta v { e_row; e_diag; e_off } =
  let t = v.(e_row) /. e_diag in
  (* robustlint: allow R1 — exact-zero sparsity skip *)
  if t <> 0. then Array.iter (fun (i, wi) -> v.(i) <- v.(i) -. (wi *. t)) e_off;
  v.(e_row) <- t

(* E⁻ᵀ c in place: c_r = (c_r − Σ w_i c_i) / w_r, other entries kept. *)
let apply_eta_t c { e_row; e_diag; e_off } =
  let acc = ref c.(e_row) in
  Array.iter (fun (i, wi) -> acc := !acc -. (wi *. c.(i))) e_off;
  c.(e_row) <- !acc /. e_diag

let ftran b rhs =
  if Array.length rhs <> b.m then invalid_arg "Lp.Basis.ftran: rhs length mismatch";
  let x = Numerics.Sparse_lu.solve b.lu rhs in
  List.iter (apply_eta x) (List.rev b.etas);
  x

let ftran_col b col =
  let rhs = Array.make b.m 0. in
  List.iter
    (fun (i, v) ->
      if not (0 <= i && i < b.m) then invalid_arg "Lp.Basis.ftran_col: row out of range";
      rhs.(i) <- rhs.(i) +. v)
    col;
  ftran b rhs

let btran b c =
  if Array.length c <> b.m then invalid_arg "Lp.Basis.btran: rhs length mismatch";
  let v = Array.copy c in
  List.iter (apply_eta_t v) b.etas;
  Numerics.Sparse_lu.solve_t b.lu v
