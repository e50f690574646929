let crossover_prob = 0.9
let eta_c = 15.
let eta_m = 20.
let mutation_prob n_var = 1. /. float_of_int n_var

let clip lo hi x = Float.min hi (Float.max lo x)

(* Deb & Agrawal's simulated binary crossover, per-gene formulation with
   bound-aware spread factors. *)
let sbx_crossover ~eta ~prob ~rng ~lower ~upper p1 p2 =
  let n = Array.length p1 in
  if not (Array.length p2 = n && Array.length lower = n && Array.length upper = n) then
    invalid_arg "Ea.Operators.sbx_crossover: parent/bound length mismatch";
  let c1 = Array.copy p1 and c2 = Array.copy p2 in
  if Numerics.Rng.bernoulli rng prob then
    for i = 0 to n - 1 do
      if Numerics.Rng.bernoulli rng 0.5 then begin
        let x1 = Float.min p1.(i) p2.(i) and x2 = Float.max p1.(i) p2.(i) in
        if x2 -. x1 > 1e-14 then begin
          let lo = lower.(i) and hi = upper.(i) in
          let rand = Numerics.Rng.float rng in
          let spread beta =
            let alpha = 2. -. (beta ** (-.(eta +. 1.))) in
            if rand <= 1. /. alpha then (rand *. alpha) ** (1. /. (eta +. 1.))
            else (1. /. (2. -. (rand *. alpha))) ** (1. /. (eta +. 1.))
          in
          (* child 1, biased toward the lower parent *)
          let beta1 = 1. +. (2. *. (x1 -. lo) /. (x2 -. x1)) in
          let bq1 = spread beta1 in
          let y1 = 0.5 *. ((x1 +. x2) -. (bq1 *. (x2 -. x1))) in
          (* child 2, biased toward the upper parent *)
          let beta2 = 1. +. (2. *. (hi -. x2) /. (x2 -. x1)) in
          let bq2 = spread beta2 in
          let y2 = 0.5 *. ((x1 +. x2) +. (bq2 *. (x2 -. x1))) in
          let y1 = clip lo hi y1 and y2 = clip lo hi y2 in
          if Numerics.Rng.bernoulli rng 0.5 then begin
            c1.(i) <- y2;
            c2.(i) <- y1
          end
          else begin
            c1.(i) <- y1;
            c2.(i) <- y2
          end
        end
      end
    done;
  (c1, c2)

let polynomial_mutation ~eta ~prob ~rng ~lower ~upper x =
  let n = Array.length x in
  if not (Array.length lower = n && Array.length upper = n) then
    invalid_arg "Ea.Operators.polynomial_mutation: bound length mismatch";
  let y = Array.copy x in
  for i = 0 to n - 1 do
    if Numerics.Rng.bernoulli rng prob then begin
      let lo = lower.(i) and hi = upper.(i) in
      let span = hi -. lo in
      if span > 0. then begin
        let d1 = (y.(i) -. lo) /. span and d2 = (hi -. y.(i)) /. span in
        let u = Numerics.Rng.float rng in
        let mpow = 1. /. (eta +. 1.) in
        let delta =
          if u < 0.5 then
            let v = (2. *. u) +. ((1. -. (2. *. u)) *. ((1. -. d1) ** (eta +. 1.))) in
            (v ** mpow) -. 1.
          else
            let v =
              (2. *. (1. -. u)) +. (2. *. (u -. 0.5) *. ((1. -. d2) ** (eta +. 1.)))
            in
            1. -. (v ** mpow)
        in
        y.(i) <- clip lo hi (y.(i) +. (delta *. span))
      end
    end
  done;
  y
