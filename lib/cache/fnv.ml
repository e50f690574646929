let prime = 0x100000001b3L
let offset_basis = 0xcbf29ce484222325L

(* Fold the 8 bytes of [bits] into [h], least-significant byte first
   (endian-stable because we index bits, not memory). *)
let fold_bits h bits =
  let h = ref h in
  for b = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical bits (8 * b)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) prime
  done;
  !h

let hash x =
  let h = ref offset_basis in
  Array.iter (fun v -> h := fold_bits !h (Int64.bits_of_float v)) x;
  !h

let equal a b =
  Array.length a = Array.length b
  &&
  let n = Array.length a in
  let rec go i =
    i >= n || (Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i)) && go (i + 1))
  in
  go 0
