type config = { pop_size : int }

(* Zhang & Li's settings: neighborhood size T, the cap n_r on neighbor
   replacements per child, and the violation penalty folded into the
   aggregation. *)
let neighbors = 20
let max_replacements = 2
let penalty = 1e6

type state = {
  problem : Moo.Problem.t;
  config : config;
  rng : Numerics.Rng.t;
  weights : float array array;
  neighborhoods : int array array;
  pop : Moo.Solution.t array;
  z : float array; (* running ideal point estimate *)
  mutable evals : int;
}

(* Aggregation: the original 2007 formulation, raw-objective Tchebycheff
   against the running ideal point, plus a large penalty for constraint
   violation so infeasible candidates only survive while nothing
   feasible exists. *)
let aggregate st w s =
  Moo.Scalarize.tchebycheff ~w ~z:st.z s.Moo.Solution.f
  +. (penalty *. s.Moo.Solution.v)

let update_ideal st s =
  Array.iteri (fun i fi -> if fi < st.z.(i) then st.z.(i) <- fi) s.Moo.Solution.f

let init problem config rng =
  if config.pop_size < neighbors then
    invalid_arg "Ea.Moead.init: need pop_size >= 20, the neighborhood size";
  let weights =
    Moo.Scalarize.uniform_weights ~n:config.pop_size ~n_obj:problem.Moo.Problem.n_obj
  in
  let dist i j = Numerics.Vec.dist2 weights.(i) weights.(j) in
  let neighborhoods =
    Array.init config.pop_size (fun i ->
        let order = Array.init config.pop_size (fun j -> j) in
        Array.sort (fun a b -> Float.compare (dist i a) (dist i b)) order;
        Array.sub order 0 neighbors)
  in
  let pop =
    Array.init config.pop_size (fun _ ->
        Moo.Solution.evaluate problem (Moo.Problem.random_solution problem rng))
  in
  let z = Array.make problem.Moo.Problem.n_obj infinity in
  let st = { problem; config; rng; weights; neighborhoods; pop; z; evals = config.pop_size } in
  Array.iter (fun s -> update_ideal st s) pop;
  st

let step st n =
  let p = st.problem in
  let pm = Operators.mutation_prob p.Moo.Problem.n_var in
  for _ = 1 to n do
    for i = 0 to st.config.pop_size - 1 do
      let nb = st.neighborhoods.(i) in
      let a = nb.(Numerics.Rng.int st.rng (Array.length nb)) in
      let b = nb.(Numerics.Rng.int st.rng (Array.length nb)) in
      let c1, _ =
        Operators.sbx_crossover ~eta:Operators.eta_c ~prob:Operators.crossover_prob
          ~rng:st.rng ~lower:p.Moo.Problem.lower ~upper:p.Moo.Problem.upper
          st.pop.(a).Moo.Solution.x st.pop.(b).Moo.Solution.x
      in
      let child_x =
        Operators.polynomial_mutation ~eta:Operators.eta_m ~prob:pm ~rng:st.rng
          ~lower:p.Moo.Problem.lower ~upper:p.Moo.Problem.upper c1
      in
      let child = Moo.Solution.evaluate p child_x in
      st.evals <- st.evals + 1;
      update_ideal st child;
      (* Replace at most [max_replacements] neighbors the child improves. *)
      let replaced = ref 0 in
      let order = Array.copy nb in
      Numerics.Rng.shuffle st.rng order;
      Array.iter
        (fun j ->
          if !replaced < max_replacements then
            if aggregate st st.weights.(j) child < aggregate st st.weights.(j) st.pop.(j)
            then begin
              st.pop.(j) <- child;
              incr replaced
            end)
        order
    done
  done

let evaluations st = st.evals

(* As in the original MOEA/D paper: the result is the non-dominated set of
   the final population (no external archive). *)
let front st = Moo.Dominance.non_dominated (Array.to_list st.pop)

