(* Allocating entry points over Numerics.Lu's in-place kernel, for tests
   that solve small dense systems as a reference. *)

include Numerics.Lu

type t = { n : int; lu : float array; perm : int array }

let factor a =
  let n = Matrix.rows a in
  if n <> Matrix.cols a then invalid_arg "Lu.factor: matrix must be square";
  let lu = Array.init (n * n) (fun k -> Matrix.get a (k / n) (k mod n)) in
  let perm = Array.make n 0 in
  factor_in_place ~n lu perm;
  { n; lu; perm }

let solve { n; lu; perm } b =
  if Array.length b <> n then invalid_arg "Lu.solve: rhs length mismatch";
  let x = Array.make n 0. in
  solve_in_place ~n lu perm b x;
  x
