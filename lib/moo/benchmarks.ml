let zdt_g x n =
  let tail = Array.sub x 1 (n - 1) in
  1. +. (9. *. Array.fold_left ( +. ) 0. tail /. float_of_int (n - 1))

let zdt1 ~n =
  if n < 2 then invalid_arg "Benchmarks.zdt1: need n >= 2";
  Problem.make ~name:"zdt1" ~n_obj:2 ~lower:(Array.make n 0.) ~upper:(Array.make n 1.)
    (fun x ->
      let f1 = x.(0) in
      let g = zdt_g x n in
      [| f1; g *. (1. -. sqrt (f1 /. g)) |])
