(* Population size, and the individuals copied unchanged each
   generation. *)
let pop_size = 60
let elites = 2

type result = {
  best_x : float array;
  best_f : float;
  evaluations : int;
  history : float list;
}

let maximize ~generations ~seed ~lower ~upper f =
  let n = Array.length lower in
  if not (Array.length upper = n && n > 0) then
    invalid_arg "Ea.Ga.maximize: bounds must be non-empty and of equal length";
  let rng = Numerics.Rng.create seed in
  let pm = Operators.mutation_prob n in
  let evals = ref 0 in
  let eval x =
    incr evals;
    f x
  in
  let random_x () =
    Array.init n (fun i -> Numerics.Rng.uniform rng lower.(i) upper.(i))
  in
  let pop = Array.init pop_size (fun _ -> random_x ()) in
  let fit = Array.map eval pop in
  let order () =
    let idx = Array.init pop_size (fun i -> i) in
    Array.sort (fun a b -> Float.compare fit.(b) fit.(a)) idx;
    idx
  in
  let history = ref [] in
  for _ = 1 to generations do
    let tournament () =
      let a = Numerics.Rng.int rng pop_size in
      let b = Numerics.Rng.int rng pop_size in
      if fit.(a) >= fit.(b) then a else b
    in
    let ranked = order () in
    let next = Array.make pop_size [||] in
    let next_fit = Array.make pop_size neg_infinity in
    (* Elitism: carry the best individuals unchanged. *)
    for e = 0 to elites - 1 do
      next.(e) <- Array.copy pop.(ranked.(e));
      next_fit.(e) <- fit.(ranked.(e))
    done;
    let k = ref elites in
    while !k < pop_size do
      let p1 = pop.(tournament ()) and p2 = pop.(tournament ()) in
      let c1, c2 =
        Operators.sbx_crossover ~eta:Operators.eta_c ~prob:Operators.crossover_prob ~rng
          ~lower ~upper p1 p2
      in
      let mutate c =
        Operators.polynomial_mutation ~eta:Operators.eta_m ~prob:pm ~rng ~lower ~upper c
      in
      let c1 = mutate c1 and c2 = mutate c2 in
      next.(!k) <- c1;
      next_fit.(!k) <- eval c1;
      incr k;
      if !k < pop_size then begin
        next.(!k) <- c2;
        next_fit.(!k) <- eval c2;
        incr k
      end
    done;
    Array.blit next 0 pop 0 pop_size;
    Array.blit next_fit 0 fit 0 pop_size;
    let best = Array.fold_left Float.max neg_infinity fit in
    history := best :: !history
  done;
  let best_i = (order ()).(0) in
  {
    best_x = Array.copy pop.(best_i);
    best_f = fit.(best_i);
    evaluations = !evals;
    history = List.rev !history;
  }
