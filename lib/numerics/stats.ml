let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let sorted xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let quantile xs p =
  if not (Array.length xs > 0 && p >= 0. && p <= 1.) then
    invalid_arg "Stats.quantile: empty sample or p outside [0, 1]";
  let ys = sorted xs in
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    if i >= n - 1 then ys.(n - 1) else ys.(i) +. (frac *. (ys.(i + 1) -. ys.(i)))

let median xs = quantile xs 0.5
