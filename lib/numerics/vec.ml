type t = float array

let make n x = Array.make n x
let init = Array.init
let copy = Array.copy
let zeros n = Array.make n 0.

let check_len x y =
  if Array.length x <> Array.length y then invalid_arg "Vec: length mismatch"

let add x y =
  check_len x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_len x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let mul x y =
  check_len x y;
  Array.mapi (fun i xi -> xi *. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x

let axpy a x y =
  check_len x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check_len x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0. x
let norm1 x = Array.fold_left (fun m xi -> m +. Float.abs xi) 0. x

let dist2 x y = norm2 (sub x y)

let sum x = Array.fold_left ( +. ) 0. x
let mean x = sum x /. float_of_int (Array.length x)

let min x = Array.fold_left Float.min infinity x
let max x = Array.fold_left Float.max neg_infinity x

let map = Array.map
let mapi = Array.mapi

let clamp ~lo ~hi x =
  check_len lo x;
  check_len hi x;
  Array.mapi (fun i xi -> Float.min hi.(i) (Float.max lo.(i) xi)) x

let lerp a b t =
  check_len a b;
  Array.mapi (fun i ai -> ((1. -. t) *. ai) +. (t *. b.(i))) a

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y && norm_inf (sub x y) <= tol

let pp ppf x =
  Format.fprintf ppf "[|%a|]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf v -> Format.fprintf ppf "%g" v))
    (Array.to_list x)
