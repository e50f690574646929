(* Sample statistics only the tests use, next to Numerics.Stats's. *)

include Numerics.Stats

(* Unbiased sample variance (n-1 denominator); 0 for singletons. *)
let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let minimum xs = Array.fold_left Float.min infinity xs
let maximum xs = Array.fold_left Float.max neg_infinity xs

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

let summarize xs =
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    q25 = quantile xs 0.25;
    median = median xs;
    q75 = quantile xs 0.75;
    max = maximum xs;
  }

(* [(left_edge, count)] pairs over [bins] equal-width bins spanning the
   data range. *)
let histogram ?(bins = 10) xs =
  if not (bins > 0 && Array.length xs > 0) then
    invalid_arg "Stats.histogram: empty sample or non-positive bins";
  let lo = minimum xs and hi = maximum xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b >= bins then bins - 1 else if b < 0 then 0 else b in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts

(* Pearson correlation coefficient. *)
let pearson xs ys =
  if not (Array.length xs = Array.length ys && Array.length xs > 1) then
    invalid_arg "Stats.pearson: samples must have equal length > 1";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  if !sxx = 0. || !syy = 0. then 0. else !sxy /. sqrt (!sxx *. !syy)
