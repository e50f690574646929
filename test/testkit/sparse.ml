(* Readers of a Numerics.Sparse builder for tests, through its
   compressed form: entries, their count, and the dense and residual
   references the network kernels are checked against. *)

include Numerics.Sparse

(* Column [j] of a compressed matrix as [(row, value)] pairs. *)
let csc_column (c : csc) j =
  List.init (c.col_ptr.(j + 1) - c.col_ptr.(j)) (fun k ->
      let q = c.col_ptr.(j) + k in
      (c.row_idx.(q), c.values.(q)))

(* The compressed [rows] × [Array.length cols] matrix whose column [j]
   holds the [(row, value)] pairs of [cols.(j)], in any order; the
   values of a repeated row add up. *)
let of_columns ~rows cols =
  let m = create ~rows ~cols:(Array.length cols) in
  Array.iteri
    (fun j col ->
      let sums = Hashtbl.create 8 in
      List.iter
        (fun (i, v) ->
          Hashtbl.replace sums i (Option.value ~default:0. (Hashtbl.find_opt sums i) +. v))
        col;
      Hashtbl.iter (fun i v -> set m i j v) sums)
    cols;
  compress m

let column m j = csc_column (compress m) j

let get m i j = Option.value ~default:0. (List.assoc_opt i (column m j))

let nnz ~cols m =
  let c = compress m in
  List.length (List.concat (List.init cols (csc_column c)))

let to_dense ~rows ~cols m =
  let c = compress m in
  let d = Matrix.zeros rows cols in
  for j = 0 to cols - 1 do
    List.iter (fun (i, v) -> Matrix.set d i j v) (csc_column c j)
  done;
  d

(* [m · x], summed column by column in ascending order as
   [csc_mv_into] sums it. *)
let mv m x =
  let c = compress m in
  let out = Array.make c.cs_rows 0. in
  for j = 0 to c.cs_cols - 1 do
    List.iter (fun (i, v) -> out.(i) <- out.(i) +. (v *. x.(j))) (csc_column c j)
  done;
  out

(* [‖m · x‖₂]. *)
let residual_norm2 m x = Vec.norm2 (mv m x)
