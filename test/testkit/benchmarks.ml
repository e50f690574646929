(* Standard multi-objective test problems the tests run the optimizers
   on, next to Moo.Benchmarks.zdt1. *)

let schaffer =
  Moo.Problem.make ~name:"schaffer" ~n_obj:2 ~lower:[| -10. |] ~upper:[| 10. |]
    (fun x -> [| x.(0) ** 2.; (x.(0) -. 2.) ** 2. |])

let zdt_g x n =
  let tail = Array.sub x 1 (n - 1) in
  1. +. (9. *. Array.fold_left ( +. ) 0. tail /. float_of_int (n - 1))

let zdt2 ~n =
  if n < 2 then invalid_arg "Benchmarks.zdt2: need n >= 2";
  Moo.Problem.make ~name:"zdt2" ~n_obj:2 ~lower:(Array.make n 0.) ~upper:(Array.make n 1.)
    (fun x ->
      let f1 = x.(0) in
      let g = zdt_g x n in
      [| f1; g *. (1. -. ((f1 /. g) ** 2.)) |])

let zdt3 ~n =
  if n < 2 then invalid_arg "Benchmarks.zdt3: need n >= 2";
  Moo.Problem.make ~name:"zdt3" ~n_obj:2 ~lower:(Array.make n 0.) ~upper:(Array.make n 1.)
    (fun x ->
      let f1 = x.(0) in
      let g = zdt_g x n in
      let r = f1 /. g in
      [| f1; g *. (1. -. sqrt r -. (r *. sin (10. *. Float.pi *. f1))) |])

let dtlz2 ~n ~n_obj =
  if not (n >= n_obj && n_obj >= 2) then
    invalid_arg "Benchmarks.dtlz2: need n >= n_obj >= 2";
  let k = n - n_obj + 1 in
  Moo.Problem.make ~name:"dtlz2" ~n_obj ~lower:(Array.make n 0.) ~upper:(Array.make n 1.)
    (fun x ->
      let g =
        let acc = ref 0. in
        for i = n - k to n - 1 do
          acc := !acc +. ((x.(i) -. 0.5) ** 2.)
        done;
        !acc
      in
      Array.init n_obj (fun m ->
          let prod = ref (1. +. g) in
          for i = 0 to n_obj - 2 - m do
            prod := !prod *. cos (x.(i) *. Float.pi /. 2.)
          done;
          if m > 0 then prod := !prod *. sin (x.(n_obj - 1 - m) *. Float.pi /. 2.);
          !prod))

let fonseca =
  let n = 3 in
  let inv_sqrt_n = 1. /. sqrt (float_of_int n) in
  Moo.Problem.make ~name:"fonseca" ~n_obj:2 ~lower:(Array.make n (-4.)) ~upper:(Array.make n 4.)
    (fun x ->
      let s1 = ref 0. and s2 = ref 0. in
      Array.iter
        (fun xi ->
          s1 := !s1 +. ((xi -. inv_sqrt_n) ** 2.);
          s2 := !s2 +. ((xi +. inv_sqrt_n) ** 2.))
        x;
      [| 1. -. exp (-. !s1); 1. -. exp (-. !s2) |])

let constrained_schaffer =
  Moo.Problem.make ~name:"constrained-schaffer" ~n_obj:2 ~lower:[| -10. |] ~upper:[| 10. |]
    ~violation:(fun x -> Float.max 0. (1. -. x.(0)))
    (fun x -> [| x.(0) ** 2.; (x.(0) -. 2.) ** 2. |])

let true_front_zdt1 ~k =
  if k < 2 then invalid_arg "Benchmarks.true_front_zdt1: need k >= 2";
  List.init k (fun i ->
      let f1 = float_of_int i /. float_of_int (k - 1) in
      [| f1; 1. -. sqrt f1 |])
