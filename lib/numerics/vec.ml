type t = float array

let check_len x y =
  if Array.length x <> Array.length y then invalid_arg "Vec: length mismatch"

let sub x y =
  check_len x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let dot x y =
  check_len x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let dist2 x y = norm2 (sub x y)
