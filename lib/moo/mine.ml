let ideal_point front =
  match front with
  | [] -> invalid_arg "Mine.ideal_point: empty front"
  | s :: _ ->
    let d = Array.length s.Solution.f in
    let ideal = Array.make d infinity in
    List.iter
      (fun m -> Array.iteri (fun i fi -> if fi < ideal.(i) then ideal.(i) <- fi) m.Solution.f)
      front;
    ideal

let nadir_point front =
  match front with
  | [] -> invalid_arg "Mine.nadir_point: empty front"
  | s :: _ ->
    let d = Array.length s.Solution.f in
    let nadir = Array.make d neg_infinity in
    List.iter
      (fun m -> Array.iteri (fun i fi -> if fi > nadir.(i) then nadir.(i) <- fi) m.Solution.f)
      front;
    nadir

let closest_to_ideal front =
  match front with
  | [] -> invalid_arg "Mine.closest_to_ideal: empty front"
  | _ ->
    let ideal = ideal_point front in
    let nadir = nadir_point front in
    let d = Array.length ideal in
    let span =
      Array.init d (fun i ->
          let s = nadir.(i) -. ideal.(i) in
          if s > 0. then s else 1.)
    in
    let dist s =
      let acc = ref 0. in
      Array.iteri
        (fun i fi ->
          let z = (fi -. ideal.(i)) /. span.(i) in
          acc := !acc +. (z *. z))
        s.Solution.f;
      sqrt !acc
    in
    List.fold_left
      (fun best s -> if dist s < dist best then s else best)
      (List.hd front) front

let shadow_minima front =
  match front with
  | [] -> invalid_arg "Mine.shadow_minima: empty front"
  | s :: _ ->
    let d = Array.length s.Solution.f in
    Array.init d (fun k ->
        List.fold_left
          (fun best m -> if m.Solution.f.(k) < best.Solution.f.(k) then m else best)
          (List.hd front) front)

let equally_spaced ~k front =
  if k <= 0 then invalid_arg "Mine.equally_spaced: k must be positive";
  let arr = Array.of_list front in
  let n = Array.length arr in
  if n <= k then front
  else begin
    Array.sort (fun a b -> Float.compare a.Solution.f.(0) b.Solution.f.(0)) arr;
    let ideal = ideal_point front and nadir = nadir_point front in
    let d = Array.length ideal in
    let span =
      Array.init d (fun i ->
          let s = nadir.(i) -. ideal.(i) in
          if s > 0. then s else 1.)
    in
    let normalized s = Array.init d (fun i -> (s.Solution.f.(i) -. ideal.(i)) /. span.(i)) in
    (* Cumulative arc length along the normalized front polyline. *)
    let cum = Array.make n 0. in
    for i = 1 to n - 1 do
      cum.(i) <- cum.(i - 1) +. Numerics.Vec.dist2 (normalized arr.(i)) (normalized arr.(i - 1))
    done;
    let total = cum.(n - 1) in
    let pick target =
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cum.(mid) < target then search (mid + 1) hi else search lo mid
      in
      arr.(search 0 (n - 1))
    in
    let chosen =
      List.init k (fun i ->
          let target = total *. float_of_int i /. float_of_int (Stdlib.max 1 (k - 1)) in
          pick target)
    in
    (* Remove physical duplicates that can arise on tight clusters. *)
    let rec dedup acc = function
      | [] -> List.rev acc
      | s :: rest -> if List.memq s acc then dedup acc rest else dedup (s :: acc) rest
    in
    dedup [] chosen
  end
