(* Dense row-major matrices for the tests: the reference products the
   sparse, LU and Jacobian kernels are checked against.  [of_numerics]
   reads a Numerics.Matrix.t (what Ode.numeric_jacobian returns). *)

type t = { r : int; c : int; a : float array }

let make r c x =
  if not (r >= 0 && c >= 0) then invalid_arg "Matrix.make: negative dimension";
  { r; c; a = Array.make (r * c) x }

let init r c f =
  { r; c; a = Array.init (r * c) (fun k -> f (k / c) (k mod c)) }

let zeros r c = make r c 0.

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays rows_ =
  let r = Array.length rows_ in
  if r = 0 then invalid_arg "Matrix.of_arrays: no rows";
  let c = Array.length rows_.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg "Matrix.of_arrays: ragged rows")
    rows_;
  init r c (fun i j -> rows_.(i).(j))

let to_arrays m = Array.init m.r (fun i -> Array.sub m.a (i * m.c) m.c)

let rows m = m.r
let cols m = m.c

let get m i j =
  if not (0 <= i && i < m.r && 0 <= j && j < m.c) then
    invalid_arg "Matrix.get: index out of bounds";
  Array.unsafe_get m.a ((i * m.c) + j)

let set m i j x =
  if not (0 <= i && i < m.r && 0 <= j && j < m.c) then
    invalid_arg "Matrix.set: index out of bounds";
  Array.unsafe_set m.a ((i * m.c) + j) x

let row m i = Array.sub m.a (i * m.c) m.c

let set_row m i v =
  if Array.length v <> m.c then invalid_arg "Matrix.set_row: length mismatch";
  Array.blit v 0 m.a (i * m.c) m.c

let swap_rows m i j =
  if i <> j then
    for k = 0 to m.c - 1 do
      let t = get m i k in
      set m i k (get m j k);
      set m j k t
    done

let transpose m = init m.c m.r (fun i j -> get m j i)

let matmul m n =
  if m.c <> n.r then invalid_arg "Matrix.matmul: shape mismatch";
  let out = zeros m.r n.c in
  for i = 0 to m.r - 1 do
    for k = 0 to m.c - 1 do
      let mik = get m i k in
      if mik <> 0. then
        for j = 0 to n.c - 1 do
          set out i j (get out i j +. (mik *. get n k j))
        done
    done
  done;
  out

let mv m x =
  if Array.length x <> m.c then invalid_arg "Matrix.mv: length mismatch";
  Array.init m.r (fun i ->
      let acc = ref 0. in
      for j = 0 to m.c - 1 do
        acc := !acc +. (Array.unsafe_get m.a ((i * m.c) + j) *. Array.unsafe_get x j)
      done;
      !acc)

let tmv m x =
  if Array.length x <> m.r then invalid_arg "Matrix.tmv: length mismatch";
  let out = Array.make m.c 0. in
  for i = 0 to m.r - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for j = 0 to m.c - 1 do
        out.(j) <- out.(j) +. (Array.unsafe_get m.a ((i * m.c) + j) *. xi)
      done
  done;
  out

let norm_frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.a)

let norm_inf m =
  let best = ref 0. in
  for i = 0 to m.r - 1 do
    let s = ref 0. in
    for j = 0 to m.c - 1 do
      s := !s +. Float.abs (get m i j)
    done;
    if !s > !best then best := !s
  done;
  !best

let approx_equal ?(tol = 1e-9) m n =
  m.r = n.r && m.c = n.c
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol) m.a n.a

let of_numerics ~n m = init n n (Numerics.Matrix.get m)
