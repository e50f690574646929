type t = {
  r : int;
  c : int;
  cols : (int, float) Hashtbl.t array; (* per column: row -> value *)
}

let create ~rows ~cols =
  if not (rows > 0 && cols > 0) then invalid_arg "Numerics.Sparse.create: dimensions must be positive";
  { r = rows; c = cols; cols = Array.init cols (fun _ -> Hashtbl.create 4) }

let set m i j v =
  if not (0 <= i && i < m.r && 0 <= j && j < m.c) then
    invalid_arg "Numerics.Sparse.set: index out of range";
  (* robustlint: allow R1 — exactly-zero entries are deleted so nnz stays tight *)
  if v = 0. then Hashtbl.remove m.cols.(j) i else Hashtbl.replace m.cols.(j) i v

let get m i j =
  if not (0 <= i && i < m.r && 0 <= j && j < m.c) then
    invalid_arg "Numerics.Sparse.get: index out of range";
  match Hashtbl.find_opt m.cols.(j) i with Some v -> v | None -> 0.

let nnz m = Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 m.cols

let column m j =
  (* robustlint: allow R7 — fold only collects bindings; the sort below fixes the order *)
  Hashtbl.fold (fun i v acc -> (i, v) :: acc) m.cols.(j) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* {1 Compressed columns} *)

type csc = {
  cs_rows : int;
  cs_cols : int;
  col_ptr : int array;   (* length cols+1 *)
  row_idx : int array;   (* length nnz, sorted within each column *)
  values : float array;  (* length nnz *)
}

let compress m =
  let n = nnz m in
  let col_ptr = Array.make (m.c + 1) 0 in
  let row_idx = Array.make (max 1 n) 0 in
  let values = Array.make (max 1 n) 0. in
  let k = ref 0 in
  for j = 0 to m.c - 1 do
    col_ptr.(j) <- !k;
    List.iter
      (fun (i, v) ->
        row_idx.(!k) <- i;
        values.(!k) <- v;
        incr k)
      (column m j)
  done;
  col_ptr.(m.c) <- !k;
  { cs_rows = m.r; cs_cols = m.c; col_ptr; row_idx; values }

let csc_column c j =
  if not (0 <= j && j < c.cs_cols) then invalid_arg "Numerics.Sparse.csc_column: out of range";
  let acc = ref [] in
  for k = c.col_ptr.(j + 1) - 1 downto c.col_ptr.(j) do
    acc := (c.row_idx.(k), c.values.(k)) :: !acc
  done;
  !acc

let csc_mv c x =
  if Array.length x <> c.cs_cols then invalid_arg "Numerics.Sparse.csc_mv: vector length mismatch";
  let out = Array.make c.cs_rows 0. in
  for j = 0 to c.cs_cols - 1 do
    let xj = x.(j) in
    (* robustlint: allow R1 — exact-zero sparsity skip *)
    if xj <> 0. then
      for k = c.col_ptr.(j) to c.col_ptr.(j + 1) - 1 do
        out.(c.row_idx.(k)) <- out.(c.row_idx.(k)) +. (c.values.(k) *. xj)
      done
  done;
  out

let csc_tmv c x =
  if Array.length x <> c.cs_rows then invalid_arg "Numerics.Sparse.csc_tmv: vector length mismatch";
  (* Entries are stored row-sorted within each column, so each sum runs
     in ascending row order and is reproducible across runs. *)
  Array.init c.cs_cols (fun j ->
      let acc = ref 0. in
      for k = c.col_ptr.(j) to c.col_ptr.(j + 1) - 1 do
        acc := !acc +. (c.values.(k) *. x.(c.row_idx.(k)))
      done;
      !acc)

let csc_gram ~ridge c =
  let m = c.cs_rows in
  let g = create ~rows:m ~cols:m in
  (* Add the outer products C(:, j)·C(:, j)ᵀ in ascending j, so every
     entry is summed in the same fixed order a dense row-by-row product
     uses; [set] drops an entry that cancels exactly. *)
  for j = 0 to c.cs_cols - 1 do
    for p = c.col_ptr.(j) to c.col_ptr.(j + 1) - 1 do
      let i = c.row_idx.(p) and cij = c.values.(p) in
      for q = c.col_ptr.(j) to c.col_ptr.(j + 1) - 1 do
        let k = c.row_idx.(q) in
        set g i k (get g i k +. (cij *. c.values.(q)))
      done
    done
  done;
  for i = 0 to m - 1 do
    set g i i (get g i i +. ridge)
  done;
  let cg = compress g in
  Array.init m (csc_column cg)
