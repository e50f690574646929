(* Sparse LU for square matrices given as sparse columns, aimed at LP
   basis matrices: hundreds of rows, a handful of nonzeros per column.

   Left-looking Gilbert–Peierls: each column is solved against the
   already-computed L factor (a sparse triangular solve whose reachable
   set comes from a depth-first search), then a pivot row is chosen by
   threshold-Markowitz — among entries within [threshold] of the
   column's largest magnitude, pick the row with the fewest original
   nonzeros (ties to the smallest row index).  Magnitude keeps the
   factorization stable, the row count keeps it sparse, and both
   tie-breaks are total orders, so the factorization — like every solve
   below — is a deterministic function of its input: no hash order, no
   wall clock, fixed iteration order throughout.

   Columns are processed in increasing original-nnz order (static
   Markowitz on columns), which on stoichiometric bases keeps fill-in
   near zero: slack/exchange singletons pivot first and the coupled
   core follows.

   L and U are stored as compressed columns in flat int/float arrays,
   and the factorization keeps its per-column work in stamped scratch
   arrays, so neither [factor] nor the solves allocate per entry. *)

type t = {
  n : int;
  (* Column k of L (unit diagonal implied) in elimination order:
     [l_row.(q)], [l_val.(q)] for q in [l_ptr.(k), l_ptr.(k+1)), original
     row and multiplier, ascending by row; rows are non-pivotal at the
     time column k is eliminated. *)
  l_ptr : int array;
  l_row : int array;
  l_val : float array;
  (* Column k of U the same way: position p < k and value, ascending by
     p. *)
  u_ptr : int array;
  u_pos : int array;
  u_val : float array;
  u_diag : float array;   (* u_kk, position space *)
  prow : int array;       (* position -> pivot (original) row *)
  pinv : int array;       (* original row -> position *)
  cord : int array;       (* position -> original column index *)
}

exception Singular

let pivot_tolerance = 1e-12
let threshold = 0.1

(* Growable (index, value) entry buffer for one factor under
   construction. *)
type buf = { mutable idx : int array; mutable vals : float array; mutable len : int }

let push b i v =
  if b.len = Array.length b.idx then begin
    let cap = 2 * b.len in
    let idx = Array.make cap 0 and vals = Array.make cap 0. in
    Array.blit b.idx 0 idx 0 b.len;
    Array.blit b.vals 0 vals 0 b.len;
    b.idx <- idx;
    b.vals <- vals
  end;
  b.idx.(b.len) <- i;
  b.vals.(b.len) <- v;
  b.len <- b.len + 1

(* Ascending sort of [a.(0 .. len-1)], distinct ints: insertion sort on
   the short runs a basis column produces, the library sort past that. *)
let sort_prefix a len =
  if len <= 32 then
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a 0 len in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 len
  end

(* Depth-first reachability of already-pivotal positions from [row]: the
   classic symbolic step of the sparse triangular solve.  Finished
   positions are written downward from [top] into [topo], so
   [topo.(top') .. topo.(n-1)] lists them in topological order (a
   position appears after every position that updates it); returns the
   new top. *)
let rec reach ~pinv ~l_ptr ~(l : buf) ~marked ~stamp ~topo row top =
  let p = pinv.(row) in
  if p >= 0 && marked.(p) <> stamp then begin
    marked.(p) <- stamp;
    let top = ref top in
    for q = l_ptr.(p) to l_ptr.(p + 1) - 1 do
      top := reach ~pinv ~l_ptr ~l ~marked ~stamp ~topo l.idx.(q) !top
    done;
    topo.(!top - 1) <- p;
    !top - 1
  end
  else top

(* Mark row [i] touched in round [k]; returns the new touched count. *)
let touch ~tstamp ~touched ~k count i =
  if tstamp.(i) <> k then begin
    tstamp.(i) <- k;
    touched.(count) <- i;
    count + 1
  end
  else count

let factor (a : Sparse.csc) =
  let n = a.cs_cols in
  if n = 0 then invalid_arg "Sparse_lu.factor: empty matrix";
  if a.cs_rows <> n then invalid_arg "Sparse_lu.factor: matrix not square";
  (* The input's compressed columns, read in place; static row counts of
     the input drive the Markowitz tie-break, column lengths the
     elimination order. *)
  let a_ptr = a.col_ptr and a_row = a.row_idx and a_val = a.values in
  let row_count = Array.make n 0 in
  for q = 0 to a_ptr.(n) - 1 do
    row_count.(a_row.(q)) <- row_count.(a_row.(q)) + 1
  done;
  (* Columns by increasing nnz, ties by index: a counting sort. *)
  let cord =
    let len k = a_ptr.(k + 1) - a_ptr.(k) in
    let max_len = ref 0 in
    for k = 0 to n - 1 do
      max_len := max !max_len (len k)
    done;
    let start = Array.make (!max_len + 2) 0 in
    for k = 0 to n - 1 do
      start.(len k + 1) <- start.(len k + 1) + 1
    done;
    for l = 1 to !max_len + 1 do
      start.(l) <- start.(l) + start.(l - 1)
    done;
    let cord = Array.make n 0 in
    for k = 0 to n - 1 do
      cord.(start.(len k)) <- k;
      start.(len k) <- start.(len k) + 1
    done;
    cord
  in
  let cap = max 16 (a_ptr.(n) + n) in
  let l = { idx = Array.make cap 0; vals = Array.make cap 0.; len = 0 } in
  let u = { idx = Array.make cap 0; vals = Array.make cap 0.; len = 0 } in
  let l_ptr = Array.make (n + 1) 0 in
  let u_ptr = Array.make (n + 1) 0 in
  let u_diag = Array.make n 0. in
  let prow = Array.make n (-1) in
  let pinv = Array.make n (-1) in
  let w = Array.make n 0. in
  let marked = Array.make n (-1) in
  let tstamp = Array.make n (-1) in
  (* Per-column scratch: reached positions, touched rows, pivot
     candidates and U positions. *)
  let topo = Array.make n 0 in
  let touched = Array.make n 0 in
  let cand = Array.make n 0 in
  let upos = Array.make n 0 in
  for k = 0 to n - 1 do
    let j = cord.(k) in
    (* Numeric sparse triangular solve: scatter, eliminate in topological
       order, gather.  [w] holds the working column by original row;
       [tstamp] marks which rows of [w] carry a value this round. *)
    let n_touched = ref 0 in
    for q = a_ptr.(j) to a_ptr.(j + 1) - 1 do
      let i = a_row.(q) in
      n_touched := touch ~tstamp ~touched ~k !n_touched i;
      w.(i) <- a_val.(q)
    done;
    let top = ref n in
    for q = a_ptr.(j) to a_ptr.(j + 1) - 1 do
      top := reach ~pinv ~l_ptr ~l ~marked ~stamp:k ~topo a_row.(q) !top
    done;
    for s = !top to n - 1 do
      let p = topo.(s) in
      let t = w.(prow.(p)) in
      (* robustlint: allow R1 — exact-zero skip of a numerically cancelled position *)
      if t <> 0. then
        for q = l_ptr.(p) to l_ptr.(p + 1) - 1 do
          let i = l.idx.(q) in
          n_touched := touch ~tstamp ~touched ~k !n_touched i;
          w.(i) <- w.(i) -. (l.vals.(q) *. t)
        done
    done;
    (* Split into the U part (already-pivotal rows, by position) and
       pivot candidates (by row); exactly-cancelled entries carry no
       information and are dropped. *)
    let n_cand = ref 0 and n_u = ref 0 in
    for s = 0 to !n_touched - 1 do
      let i = touched.(s) in
      (* robustlint: allow R1 — exact-zero sparsity skip at the gather *)
      if w.(i) <> 0. then begin
        let p = pinv.(i) in
        if p >= 0 then begin
          upos.(!n_u) <- p;
          incr n_u
        end
        else begin
          cand.(!n_cand) <- i;
          incr n_cand
        end
      end
    done;
    (* Threshold-Markowitz pivot among the candidates. *)
    let wmax = ref 0. in
    for s = 0 to !n_cand - 1 do
      wmax := Float.max !wmax (Float.abs w.(cand.(s)))
    done;
    if !wmax < pivot_tolerance then raise Singular;
    let piv = ref (-1) in
    for s = 0 to !n_cand - 1 do
      let i = cand.(s) in
      if Float.abs w.(i) >= threshold *. !wmax then begin
        let b = !piv in
        if
          b < 0
          || row_count.(i) < row_count.(b)
          || (row_count.(i) = row_count.(b) && i < b)
        then piv := i
      end
    done;
    if !piv < 0 then raise Singular;
    let piv = !piv in
    let d = w.(piv) in
    u_diag.(k) <- d;
    prow.(k) <- piv;
    pinv.(piv) <- k;
    sort_prefix upos !n_u;
    for s = 0 to !n_u - 1 do
      let p = upos.(s) in
      push u p w.(prow.(p))
    done;
    u_ptr.(k + 1) <- u.len;
    sort_prefix cand !n_cand;
    for s = 0 to !n_cand - 1 do
      let i = cand.(s) in
      if i <> piv then begin
        let m = w.(i) /. d in
        (* robustlint: allow R1 — exactly-cancelled multipliers carry no information *)
        if m <> 0. then push l i m
      end
    done;
    l_ptr.(k + 1) <- l.len;
    for s = 0 to !n_touched - 1 do
      w.(touched.(s)) <- 0.
    done
  done;
  {
    n;
    l_ptr;
    l_row = Array.sub l.idx 0 l.len;
    l_val = Array.sub l.vals 0 l.len;
    u_ptr;
    u_pos = Array.sub u.idx 0 u.len;
    u_val = Array.sub u.vals 0 u.len;
    u_diag;
    prow;
    pinv;
    cord;
  }

let dim f = f.n

let nnz f = f.n + f.l_ptr.(f.n) + f.u_ptr.(f.n)

(* Solve A x = b into [x], consuming [b] as the working vector.  [b] is
   indexed by original row; the result is indexed by original column
   (for a basis matrix: by basis position). *)
let solve_into f b x =
  if Array.length b < f.n || Array.length x < f.n || b == x then
    invalid_arg "Sparse_lu.solve_into: vector too short or shared";
  let w = b in
  (* L y = P b, forward in position order; y_k lives at w.(prow.(k)). *)
  for k = 0 to f.n - 1 do
    let t = w.(f.prow.(k)) in
    (* robustlint: allow R1 — exact-zero sparsity skip *)
    if t <> 0. then
      for q = f.l_ptr.(k) to f.l_ptr.(k + 1) - 1 do
        let i = f.l_row.(q) in
        w.(i) <- w.(i) -. (f.l_val.(q) *. t)
      done
  done;
  (* U z = y, backward by column; scatter z into the answer as we go. *)
  for k = f.n - 1 downto 0 do
    let z = w.(f.prow.(k)) /. f.u_diag.(k) in
    x.(f.cord.(k)) <- z;
    (* robustlint: allow R1 — exact-zero sparsity skip *)
    if z <> 0. then
      for q = f.u_ptr.(k) to f.u_ptr.(k + 1) - 1 do
        let r = f.prow.(f.u_pos.(q)) in
        w.(r) <- w.(r) -. (f.u_val.(q) *. z)
      done
  done

(* Solve Aᵀ y = c into [y], consuming [c].  [c] is indexed by original
   column; the result is indexed by original row.  The intermediate v
   (by position) is kept in [c] itself: v_k goes to the slot
   [c.(cord.(k))], whose input the forward sweep has just read for the
   last time, so every operation is the one a separate work vector
   would see, in the same order. *)
let solve_t_into f c y =
  if Array.length c < f.n || Array.length y < f.n || c == y then
    invalid_arg "Sparse_lu.solve_t_into: vector too short or shared";
  let cord = f.cord in
  (* Uᵀ v = Qᵀ c, forward in position order. *)
  for k = 0 to f.n - 1 do
    let acc = ref c.(cord.(k)) in
    for q = f.u_ptr.(k) to f.u_ptr.(k + 1) - 1 do
      acc := !acc -. (f.u_val.(q) *. c.(cord.(f.u_pos.(q))))
    done;
    c.(cord.(k)) <- !acc /. f.u_diag.(k)
  done;
  (* Lᵀ w = v, backward in position order. *)
  for k = f.n - 1 downto 0 do
    let acc = ref c.(cord.(k)) in
    for q = f.l_ptr.(k) to f.l_ptr.(k + 1) - 1 do
      acc := !acc -. (f.l_val.(q) *. c.(cord.(f.pinv.(f.l_row.(q)))))
    done;
    c.(cord.(k)) <- !acc
  done;
  (* y = Pᵀ w. *)
  for k = 0 to f.n - 1 do
    y.(f.prow.(k)) <- c.(cord.(k))
  done
