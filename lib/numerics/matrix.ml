type t = { r : int; c : int; a : float array }

let init r c f =
  { r; c; a = Array.init (r * c) (fun k -> f (k / c) (k mod c)) }

let get m i j =
  if not (0 <= i && i < m.r && 0 <= j && j < m.c) then
    invalid_arg "Matrix.get: index out of bounds";
  Array.unsafe_get m.a ((i * m.c) + j)
