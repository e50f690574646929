type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let state r = r.state

let set_state r s = r.state <- s

(* SplitMix64 step: advance by the golden gamma then mix (Steele et al.). *)
let bits64 r =
  r.state <- Int64.add r.state golden_gamma;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split r =
  let seed = bits64 r in
  { state = seed }

(* Mix one 64-bit value through the SplitMix64 finalizer: enough avalanche
   that consecutive task indices land in unrelated regions of state space. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let stream ~seed index =
  if index < 0 then invalid_arg "Rng.stream: index must be non-negative";
  (* A pure function of (seed, index): stream k of a seed is the same
     generator whether the tasks that consume it run sequentially or on
     any number of worker domains. *)
  let base = mix64 (Int64.add (Int64.of_int seed) golden_gamma) in
  { state = mix64 (Int64.logxor base (Int64.mul (Int64.of_int index) golden_gamma)) }

let float r =
  (* 53 high bits scaled into [0,1). *)
  let bits = Int64.shift_right_logical (bits64 r) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform r lo hi =
  if not (lo <= hi) then invalid_arg "Rng.uniform: empty interval";
  lo +. ((hi -. lo) *. float r)

let int r n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo in Int64 on a non-negative 63-bit draw; the bias is negligible
     for n << 2^63.  (Converting to a native int first could go negative.) *)
  let v = Int64.shift_right_logical (bits64 r) 1 in
  Int64.to_int (Int64.rem v (Int64.of_int n))

let bool r = Int64.logand (bits64 r) 1L = 1L

let bernoulli r p = float r < p

let gaussian ?(sigma = 1.) r =
  let rec draw () =
    let u1 = float r in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float r in
      sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
  in
  sigma *. draw ()

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_indices r ~n ~k =
  if not (0 <= k && k <= n) then invalid_arg "Rng.sample_indices: need 0 <= k <= n";
  let pool = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int r (n - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k
