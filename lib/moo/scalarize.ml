let tchebycheff ~w ~z f =
  if not (Array.length w = Array.length f && Array.length z = Array.length f) then
    invalid_arg "Scalarize.tchebycheff: length mismatch";
  let acc = ref neg_infinity in
  Array.iteri
    (fun i wi ->
      let wi = Float.max wi 1e-6 in
      let v = wi *. Float.abs (f.(i) -. z.(i)) in
      if v > !acc then acc := v)
    w;
  !acc

(* All compositions of [total] into [n_obj] non-negative parts. *)
let rec compositions total n_obj =
  if n_obj = 1 then [ [ total ] ]
  else
    List.concat_map
      (fun first ->
        List.map (fun rest -> first :: rest) (compositions (total - first) (n_obj - 1)))
      (List.init (total + 1) (fun i -> i))

let uniform_weights ~n ~n_obj =
  if not (n > 0 && n_obj >= 2) then
    invalid_arg "Scalarize.uniform_weights: need n > 0 and n_obj >= 2";
  if n_obj = 2 then
    Array.init n (fun i ->
        let t = if n = 1 then 0.5 else float_of_int i /. float_of_int (n - 1) in
        [| t; 1. -. t |])
  else begin
    (* Smallest simplex-lattice H with at least n points, then truncate. *)
    let rec find_h h =
      if List.length (compositions h n_obj) >= n then h else find_h (h + 1)
    in
    let h = find_h 1 in
    let pts = compositions h n_obj in
    let arr =
      Array.of_list
        (List.map
           (fun parts -> Array.of_list (List.map (fun p -> float_of_int p /. float_of_int h) parts))
           pts)
    in
    Array.sub arr 0 n
  end
