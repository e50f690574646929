let strictly_dominates_ref r f =
  let ok = ref true in
  Array.iteri (fun i fi -> if fi >= r.(i) then ok := false) f;
  !ok

let hv2d r points =
  (* Non-dominated points sorted by f0 ascending have f1 strictly
     descending; sweep accumulating the staircase area. *)
  let pts = Dominance.non_dominated_objectives points in
  let pts = List.sort (fun a b -> Float.compare a.(0) b.(0)) pts in
  let acc = ref 0. in
  let prev_y = ref r.(1) in
  List.iter
    (fun f ->
      if f.(1) < !prev_y then begin
        acc := !acc +. ((r.(0) -. f.(0)) *. (!prev_y -. f.(1)));
        prev_y := f.(1)
      end)
    pts;
  !acc

let project d f = Array.sub f 0 d

(* Hypervolume by slicing objectives from the last dimension down (HSO):
   slab [i] of the top slice holds the points at or below [i] in the sort
   order, projected down one dimension, and spans the gap to the next
   point (or the reference). *)
let rec hv_slice d r points =
  match points with
  | [] -> 0.
  | _ when d = 1 ->
    let best = List.fold_left (fun m f -> Float.min m f.(0)) infinity points in
    Float.max 0. (r.(0) -. best)
  | _ when d = 2 -> hv2d r points
  | _ ->
    let k = d - 1 in
    let sorted = List.sort (fun a b -> compare a.(k) b.(k)) points in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let z_hi = if i + 1 < n then arr.(i + 1).(k) else r.(k) in
      let depth = z_hi -. arr.(i).(k) in
      if depth > 0. then begin
        let slab = ref [] in
        for j = 0 to i do
          slab := project k arr.(j) :: !slab
        done;
        let slab = Dominance.non_dominated_objectives !slab in
        acc := !acc +. (depth *. hv_slice k (project k r) slab)
      end
    done;
    !acc

let compute ~ref_point points =
  let d = Array.length ref_point in
  let pts =
    List.filter
      (fun f ->
        if Array.length f <> d then invalid_arg "Hypervolume.compute: dimension mismatch";
        strictly_dominates_ref ref_point f)
      points
  in
  hv_slice d ref_point pts

let of_solutions ~ref_point sols =
  compute ~ref_point (List.map (fun s -> s.Solution.f) sols)

let normalized ~ref_point ~ideal points =
  let d = Array.length ref_point in
  if Array.length ideal <> d then invalid_arg "Hypervolume.normalized: dimension mismatch";
  let span = Array.init d (fun i -> ref_point.(i) -. ideal.(i)) in
  Array.iter
    (fun s ->
      if not (s > 0.) then invalid_arg "Hypervolume.normalized: ref_point must dominate ideal")
    span;
  let rescale f = Array.init d (fun i -> (f.(i) -. ideal.(i)) /. span.(i)) in
  compute ~ref_point:(Array.make d 1.) (List.map rescale points)
