let factor rng ~delta = 1. +. Numerics.Rng.uniform rng (-.delta) delta

let global rng ~delta x =
  if not (delta >= 0. && delta < 1.) then
    invalid_arg "Robustness.Perturb.global: delta must lie in [0, 1)";
  Array.map (fun xi -> xi *. factor rng ~delta) x

let local rng ~delta ~index x =
  if not (delta >= 0. && delta < 1.) then
    invalid_arg "Robustness.Perturb.local: delta must lie in [0, 1)";
  if not (0 <= index && index < Array.length x) then
    invalid_arg "Robustness.Perturb.local: index out of range";
  let y = Array.copy x in
  y.(index) <- y.(index) *. factor rng ~delta;
  y

(* Stream ensembles: trial [t] draws from its own generator, derived
   from [(seed, t)] alone — no shared stream, so trials can be computed
   in any order (or on any domain) and still agree bit-for-bit. *)
let stream_trial ~seed ~delta ?index x t =
  let rng = Numerics.Rng.stream ~seed t in
  match index with
  | None -> global rng ~delta x
  | Some index -> local rng ~delta ~index x
