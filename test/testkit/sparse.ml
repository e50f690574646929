(* Readers of a Numerics.Sparse builder for tests, through its
   compressed form: entries, their count, and the dense and residual
   references the network kernels are checked against. *)

include Numerics.Sparse

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

(* [‖m · x‖₂]. *)
let residual_norm2 m x = Vec.norm2 (csc_mv (compress m) x)
