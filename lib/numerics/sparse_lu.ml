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
   core follows. *)

type t = {
  n : int;
  (* Column k of L (unit diagonal implied) in elimination order: entries
     (original row, multiplier), sorted by row; rows are non-pivotal at
     the time column k is eliminated. *)
  l_cols : (int * float) array array;
  (* Column k of U: entries (position p < k, value), sorted by p. *)
  u_cols : (int * float) array array;
  u_diag : float array;   (* u_kk, position space *)
  prow : int array;       (* position -> pivot (original) row *)
  pinv : int array;       (* original row -> position *)
  cord : int array;       (* position -> original column index *)
}

exception Singular

let pivot_tolerance = 1e-12
let threshold = 0.1

(* Depth-first reachability of already-pivotal positions from the
   nonzero pattern of the incoming column: the classic symbolic step of
   the sparse triangular solve.  Returns positions in topological order
   (a position appears after every position that updates it). *)
let reach ~pinv ~l_cols ~(marked : int array) ~(stamp : int) rows0 =
  let topo = ref [] in
  let rec dfs row =
    let p = pinv.(row) in
    if p >= 0 && marked.(p) <> stamp then begin
      marked.(p) <- stamp;
      Array.iter (fun (i, _) -> dfs i) l_cols.(p);
      topo := p :: !topo
    end
  in
  List.iter (fun (i, _) -> dfs i) rows0;
  !topo

let factor (cols : (int * float) list array) =
  let n = Array.length cols in
  if n = 0 then invalid_arg "Sparse_lu.factor: empty matrix";
  List.iter
    (fun (i, _) -> if i < 0 || i >= n then invalid_arg "Sparse_lu.factor: row out of range")
    (Array.to_list cols |> List.concat);
  (* Static row counts of the input matrix drive the Markowitz tie-break. *)
  let row_count = Array.make n 0 in
  Array.iter (List.iter (fun (i, _) -> row_count.(i) <- row_count.(i) + 1)) cols;
  let cord = Array.init n (fun k -> k) in
  let key k = (List.length cols.(k), k) in
  Array.sort (fun a b -> compare (key a) (key b)) cord;
  let l_cols = Array.make n [||] in
  let u_cols = Array.make n [||] in
  let u_diag = Array.make n 0. in
  let prow = Array.make n (-1) in
  let pinv = Array.make n (-1) in
  let w = Array.make n 0. in
  let marked = Array.make n (-1) in
  let tstamp = Array.make n (-1) in
  for k = 0 to n - 1 do
    let j = cord.(k) in
    let col = cols.(j) in
    (* Numeric sparse triangular solve: scatter, eliminate in topological
       order, gather.  [w] holds the working column by original row;
       [tstamp] marks which rows of [w] carry a value this round. *)
    let touched = ref [] in
    let touch i =
      if tstamp.(i) <> k then begin
        tstamp.(i) <- k;
        touched := i :: !touched
      end
    in
    List.iter
      (fun (i, v) ->
        touch i;
        w.(i) <- v)
      col;
    let topo = reach ~pinv ~l_cols ~marked ~stamp:k col in
    List.iter
      (fun p ->
        let t = w.(prow.(p)) in
        (* robustlint: allow R1 — exact-zero skip of a numerically cancelled position *)
        if t <> 0. then
          Array.iter
            (fun (i, l) ->
              touch i;
              w.(i) <- w.(i) -. (l *. t))
            l_cols.(p))
      topo;
    let touched = List.sort compare !touched in
    (* Split into the U part (already-pivotal rows) and pivot candidates;
       exactly-cancelled entries carry no information and are dropped. *)
    let u_entries = ref [] in
    let candidates = ref [] in
    List.iter
      (fun i ->
        (* robustlint: allow R1 — exact-zero sparsity skip at the gather *)
        if w.(i) <> 0. then begin
          let p = pinv.(i) in
          if p >= 0 then u_entries := (p, w.(i)) :: !u_entries
          else candidates := i :: !candidates
        end)
      touched;
    (* Threshold-Markowitz pivot among the candidates. *)
    let wmax =
      List.fold_left (fun acc i -> Float.max acc (Float.abs w.(i))) 0. !candidates
    in
    if wmax < pivot_tolerance then begin
      (* reset the scatter array before bailing out *)
      List.iter (fun i -> w.(i) <- 0.) touched;
      raise Singular
    end;
    let pick =
      List.fold_left
        (fun best i ->
          if Float.abs w.(i) >= threshold *. wmax then
            match best with
            | None -> Some i
            | Some b ->
              if
                row_count.(i) < row_count.(b)
                || (row_count.(i) = row_count.(b) && i < b)
              then Some i
              else best
          else best)
        None !candidates
    in
    let piv = match pick with Some i -> i | None -> raise Singular in
    let d = w.(piv) in
    u_diag.(k) <- d;
    prow.(k) <- piv;
    pinv.(piv) <- k;
    u_cols.(k) <-
      Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) !u_entries);
    l_cols.(k) <-
      (List.filter (fun i -> i <> piv) !candidates
      |> List.sort compare
      |> List.filter_map (fun i ->
             let l = w.(i) /. d in
             (* robustlint: allow R1 — exactly-cancelled multipliers carry no information *)
             if l = 0. then None else Some (i, l))
      |> Array.of_list);
    List.iter (fun i -> w.(i) <- 0.) touched
  done;
  { n; l_cols; u_cols; u_diag; prow; pinv; cord }

let nnz f =
  let tally = Array.fold_left (fun acc c -> acc + Array.length c) in
  tally (tally f.n f.l_cols) f.u_cols

(* Solve A x = b.  [b] is indexed by original row; the result is indexed
   by original column (for a basis matrix: by basis position). *)
let solve f b =
  if Array.length b <> f.n then invalid_arg "Sparse_lu.solve: rhs length mismatch";
  let w = Array.copy b in
  (* L y = P b, forward in position order; y_k lives at w.(prow.(k)). *)
  for k = 0 to f.n - 1 do
    let t = w.(f.prow.(k)) in
    (* robustlint: allow R1 — exact-zero sparsity skip *)
    if t <> 0. then Array.iter (fun (i, l) -> w.(i) <- w.(i) -. (l *. t)) f.l_cols.(k)
  done;
  (* U z = y, backward by column; scatter z into the answer as we go. *)
  let x = Array.make f.n 0. in
  for k = f.n - 1 downto 0 do
    let z = w.(f.prow.(k)) /. f.u_diag.(k) in
    x.(f.cord.(k)) <- z;
    (* robustlint: allow R1 — exact-zero sparsity skip *)
    if z <> 0. then
      Array.iter (fun (p, u) -> w.(f.prow.(p)) <- w.(f.prow.(p)) -. (u *. z)) f.u_cols.(k)
  done;
  x

(* Solve Aᵀ y = c.  [c] is indexed by original column; the result is
   indexed by original row. *)
let solve_t f c =
  if Array.length c <> f.n then invalid_arg "Sparse_lu.solve_t: rhs length mismatch";
  (* Uᵀ v = Qᵀ c, forward in position order. *)
  let v = Array.make f.n 0. in
  for k = 0 to f.n - 1 do
    let acc = ref c.(f.cord.(k)) in
    Array.iter (fun (p, u) -> acc := !acc -. (u *. v.(p))) f.u_cols.(k);
    v.(k) <- !acc /. f.u_diag.(k)
  done;
  (* Lᵀ w = v, backward in position order. *)
  for k = f.n - 1 downto 0 do
    let acc = ref v.(k) in
    Array.iter (fun (i, l) -> acc := !acc -. (l *. v.(f.pinv.(i)))) f.l_cols.(k);
    v.(k) <- !acc
  done;
  (* y = Pᵀ w. *)
  let y = Array.make f.n 0. in
  for k = 0 to f.n - 1 do
    y.(f.prow.(k)) <- v.(k)
  done;
  y
