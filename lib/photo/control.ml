type coefficient = {
  enzyme : int;
  name : string;
  control : float;
}

(* The relative finite-difference step. *)
let delta = 0.05

let flux_control ~env ~ratios =
  if Array.length ratios <> Enzyme.count then
    invalid_arg "Photo.Control.flux_control: one ratio per enzyme required";
  let base = Steady_state.evaluate ~env ~ratios () in
  let warm = base.Steady_state.y in
  let a0 = base.Steady_state.uptake in
  Array.init Enzyme.count (fun i ->
      let up = Array.copy ratios in
      up.(i) <- ratios.(i) *. (1. +. delta);
      let down = Array.copy ratios in
      down.(i) <- ratios.(i) *. (1. -. delta);
      let a_up = (Steady_state.evaluate ~y0:warm ~env ~ratios:up ()).Steady_state.uptake in
      let a_down = (Steady_state.evaluate ~y0:warm ~env ~ratios:down ()).Steady_state.uptake in
      let control =
        if Float.abs a0 < 1e-9 then 0.
        else (a_up -. a_down) /. (2. *. delta *. a0)
      in
      { enzyme = i; name = Enzyme.names.(i); control })

let ranking coeffs =
  List.sort
    (fun a b -> Float.compare (Float.abs b.control) (Float.abs a.control))
    (Array.to_list coeffs)

let summation coeffs = Array.fold_left (fun acc c -> acc +. c.control) 0. coeffs
