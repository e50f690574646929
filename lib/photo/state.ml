let rubp = 0
let pga = 1
let dpga = 2
let tp = 3
let fbp = 4
let e4p = 5
let sbp = 6
let s7p = 7
let pp = 8
let hp = 9
let atp = 10
let pgca = 11
let gca = 12
let goa = 13
let gly = 14
let ser = 15
let hpr = 16
let gcea = 17
let tpc = 18
let fbpc = 19
let hpc = 20
let udpg = 21
let sucp = 22
let f26bp = 23

let n = 24

let initial () =
  let y = Array.make n 0. in
  y.(rubp) <- 2.0;
  y.(pga) <- 2.4;
  y.(dpga) <- 0.3;
  y.(tp) <- 0.5;
  y.(fbp) <- 0.1;
  y.(e4p) <- 0.05;
  y.(sbp) <- 0.1;
  y.(s7p) <- 0.1;
  y.(pp) <- 0.05;
  y.(hp) <- 2.0;
  y.(atp) <- 0.68;
  y.(pgca) <- 0.03;
  y.(gca) <- 0.3;
  y.(goa) <- 0.03;
  y.(gly) <- 1.0;
  y.(ser) <- 2.0;
  y.(hpr) <- 0.01;
  y.(gcea) <- 0.2;
  y.(tpc) <- 0.3;
  y.(fbpc) <- 0.04;
  y.(hpc) <- 2.0;
  y.(udpg) <- 0.3;
  y.(sucp) <- 0.2;
  y.(f26bp) <- 0.002;
  y

let phosphate_groups =
  let g = Array.make n 0. in
  g.(rubp) <- 2.;
  g.(pga) <- 1.;
  g.(dpga) <- 2.;
  g.(tp) <- 1.;
  g.(fbp) <- 2.;
  g.(e4p) <- 1.;
  g.(sbp) <- 2.;
  g.(s7p) <- 1.;
  g.(pp) <- 1.;
  g.(hp) <- 1.;
  g.(atp) <- 1.; (* the transferable phosphate relative to ADP *)
  g.(pgca) <- 1.;
  g

(* Only the first 12 states, RuBP to PGCA, carry phosphate.  For a
   finite state, summing just those gives the bits of the sum over all
   24: each skipped term is 0·y = ±0, and adding ±0 leaves a sum that
   started at +0. unchanged (a round-to-nearest sum from +0. is never
   −0.).  It also keeps the states after PGCA out of Pi's dataflow,
   which [Model.pattern] reads.  The clamp is [Float.max 0.01 x] bit for
   bit, a NaN included, without the call. *)
let stromal_pi (k : Params.kinetics) y =
  let bound = ref 0. in
  for i = 0 to pgca do
    bound := !bound +. (phosphate_groups.(i) *. y.(i))
  done;
  let x = k.Params.phosphate_total -. !bound in
  if x > 0.01 then x else if Float.is_nan x then x else 0.01
