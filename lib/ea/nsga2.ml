type config = {
  pop_size : int;
  crossover_prob : float;
  eta_c : float;
  mutation_prob : float option;
  eta_m : float;
  variation :
    (Numerics.Rng.t -> float array -> float array -> float array * float array)
    option;
  pool : Parallel.Pool.t option;
  cache : Moo.Solution.t Cache.Memo.t option;
}

let default_config =
  {
    pop_size = 100;
    crossover_prob = 0.9;
    eta_c = 15.;
    mutation_prob = None;
    eta_m = 20.;
    variation = None;
    pool = None;
    cache = None;
  }

(* Evaluate a batch of candidate vectors, in index order.  Variation has
   already consumed the generator, and evaluating a candidate is a pure
   function of its vector (guards penalize deterministically), so the
   batch layer — within-batch dedup, memo replay, pooled misses —
   returns bit-for-bit the same array as the plain sequential map; the
   pool and the memo only change wall clock. *)
let evaluate_batch problem config xs =
  Cache.Batch.evaluate ?pool:config.pool ?memo:config.cache ~n:(Array.length xs)
    ~key:(fun i -> xs.(i))
    (fun i -> Moo.Solution.evaluate problem xs.(i))

type state = {
  problem : Moo.Problem.t;
  config : config;
  rng : Numerics.Rng.t;
  mutable pop : Moo.Solution.t array;
  mutable ranks : int array;
  mutable crowd : float array;
  mutable evals : int;
  mutable gen : int;
}

let fast_non_dominated_sort pop =
  let n = Array.length pop in
  let ranks = Array.make n (-1) in
  let dominated_by = Array.make n [] in
  let domination_count = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match Moo.Dominance.constrained pop.(i) pop.(j) with
      | Moo.Dominance.Dominates ->
        dominated_by.(i) <- j :: dominated_by.(i);
        domination_count.(j) <- domination_count.(j) + 1
      | Moo.Dominance.Dominated ->
        dominated_by.(j) <- i :: dominated_by.(j);
        domination_count.(i) <- domination_count.(i) + 1
      | Moo.Dominance.Incomparable | Moo.Dominance.Equal -> ()
    done
  done;
  let current = ref [] in
  for i = 0 to n - 1 do
    if domination_count.(i) = 0 then begin
      ranks.(i) <- 0;
      current := i :: !current
    end
  done;
  let rank = ref 0 in
  while !current <> [] do
    let next = ref [] in
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            domination_count.(j) <- domination_count.(j) - 1;
            if domination_count.(j) = 0 then begin
              ranks.(j) <- !rank + 1;
              next := j :: !next
            end)
          dominated_by.(i))
      !current;
    incr rank;
    current := !next
  done;
  ranks

let crowding_distance pop (ranks : int array) (r : int) =
  let n = Array.length pop in
  let idx = ref [] in
  for i = n - 1 downto 0 do
    if ranks.(i) = r then idx := i :: !idx
  done;
  let members = Array.of_list !idx in
  let m = Array.length members in
  let dist = Array.make n 0. in
  if m > 0 then begin
    let n_obj = Array.length pop.(members.(0)).Moo.Solution.f in
    for k = 0 to n_obj - 1 do
      let order = Array.copy members in
      Array.sort
        (fun a b -> Float.compare pop.(a).Moo.Solution.f.(k) pop.(b).Moo.Solution.f.(k))
        order;
      dist.(order.(0)) <- infinity;
      dist.(order.(m - 1)) <- infinity;
      let fmin = pop.(order.(0)).Moo.Solution.f.(k) in
      let fmax = pop.(order.(m - 1)).Moo.Solution.f.(k) in
      let span = fmax -. fmin in
      if span > 0. then
        for r = 1 to m - 2 do
          let prev = pop.(order.(r - 1)).Moo.Solution.f.(k) in
          let next = pop.(order.(r + 1)).Moo.Solution.f.(k) in
          dist.(order.(r)) <- dist.(order.(r)) +. ((next -. prev) /. span)
        done
    done
  end;
  dist

let recompute_metrics st =
  let ranks = fast_non_dominated_sort st.pop in
  let max_rank = Array.fold_left Stdlib.max 0 ranks in
  let crowd = Array.make (Array.length st.pop) 0. in
  for r = 0 to max_rank do
    let d = crowding_distance st.pop ranks r in
    Array.iteri (fun i di -> if ranks.(i) = r then crowd.(i) <- di) d
  done;
  st.ranks <- ranks;
  st.crowd <- crowd

let init ?(initial = []) problem config rng =
  if not (config.pop_size >= 4 && config.pop_size mod 2 = 0) then
    invalid_arg "Ea.Nsga2.init: need an even pop_size >= 4";
  let seeded = Array.of_list initial in
  let ns = Stdlib.min (Array.length seeded) config.pop_size in
  (* Draw every random candidate first (fixed generator order), then
     evaluate the batch — pooled when configured. *)
  let xs =
    Array.init (config.pop_size - ns) (fun _ -> Moo.Problem.random_solution problem rng)
  in
  let fresh = evaluate_batch problem config xs in
  let pop = Array.init config.pop_size (fun i -> if i < ns then seeded.(i) else fresh.(i - ns)) in
  let st =
    {
      problem;
      config;
      rng;
      pop;
      ranks = [||];
      crowd = [||];
      evals = config.pop_size - Stdlib.min (Array.length seeded) config.pop_size;
      gen = 0;
    }
  in
  recompute_metrics st;
  st

(* Binary tournament on (rank, crowding). *)
let tournament st =
  let n = Array.length st.pop in
  let a = Numerics.Rng.int st.rng n and b = Numerics.Rng.int st.rng n in
  if
    st.ranks.(a) < st.ranks.(b)
    || (st.ranks.(a) = st.ranks.(b) && st.crowd.(a) > st.crowd.(b))
  then a
  else b

(* Environmental selection: keep the best [pop_size] of a merged pool. *)
let environmental_select st pool =
  let ranks = fast_non_dominated_sort pool in
  let n = Array.length pool in
  let max_rank = Array.fold_left Stdlib.max 0 ranks in
  let crowd = Array.make n 0. in
  for r = 0 to max_rank do
    let d = crowding_distance pool ranks r in
    Array.iteri (fun i di -> if ranks.(i) = r then crowd.(i) <- di) d
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      if ranks.(a) <> ranks.(b) then compare ranks.(a) ranks.(b)
      else Float.compare crowd.(b) crowd.(a))
    order;
  st.pop <- Array.init st.config.pop_size (fun i -> pool.(order.(i)));
  recompute_metrics st

let make_offspring st =
  let p = st.problem in
  let n_var = p.Moo.Problem.n_var in
  let pm =
    match st.config.mutation_prob with
    | Some pm -> pm
    | None -> 1. /. float_of_int n_var
  in
  let children = ref [] in
  let half = st.config.pop_size / 2 in
  for _ = 1 to half do
    let i = tournament st and j = tournament st in
    let x1 = st.pop.(i).Moo.Solution.x and x2 = st.pop.(j).Moo.Solution.x in
    let k1, k2 =
      match st.config.variation with
      | Some vary -> vary st.rng x1 x2
      | None ->
        let c1, c2 =
          Operators.sbx_crossover ~eta:st.config.eta_c ~prob:st.config.crossover_prob
            ~rng:st.rng ~lower:p.Moo.Problem.lower ~upper:p.Moo.Problem.upper x1 x2
        in
        let mutate c =
          Operators.polynomial_mutation ~eta:st.config.eta_m ~prob:pm ~rng:st.rng
            ~lower:p.Moo.Problem.lower ~upper:p.Moo.Problem.upper c
        in
        (mutate c1, mutate c2)
    in
    children := k1 :: k2 :: !children
  done;
  (* Variation above consumed the generator in a fixed order; evaluation
     is pure, so the (possibly pooled) batch is bit-identical to the
     sequential map. *)
  let xs = Array.of_list !children in
  (* [evals] deliberately counts requested evaluations, not cache
     misses: it is the algorithmic budget consumed, comparable across
     cached and uncached runs (and what resume accounting asserts on). *)
  st.evals <- st.evals + Array.length xs;
  Array.to_list (evaluate_batch p st.config xs)

let step st n =
  for _ = 1 to n do
    let children = Array.of_list (make_offspring st) in
    environmental_select st (Array.append st.pop children);
    st.gen <- st.gen + 1
  done

let population st = Array.copy st.pop

let front st =
  let out = ref [] in
  Array.iteri (fun i s -> if st.ranks.(i) = 0 then out := s :: !out) st.pop;
  Moo.Dominance.non_dominated !out

let evaluations st = st.evals

type snapshot = {
  snap_pop : Moo.Solution.t array;
  snap_evals : int;
  snap_gen : int;
  snap_rng : int64;
}

let snapshot st =
  {
    snap_pop = Array.copy st.pop;
    snap_evals = st.evals;
    snap_gen = st.gen;
    snap_rng = Numerics.Rng.state st.rng;
  }

let restore st snap =
  st.pop <- Array.copy snap.snap_pop;
  st.evals <- snap.snap_evals;
  st.gen <- snap.snap_gen;
  Numerics.Rng.set_state st.rng snap.snap_rng;
  (* Ranks and crowding are pure functions of the population. *)
  recompute_metrics st

let select_emigrants st k =
  let f = front st in
  let arr = Array.of_list f in
  (* Most crowding-diverse first: order by descending crowding of the
     first-front members. *)
  if Array.length arr <= k then Array.to_list arr
  else begin
    Numerics.Rng.shuffle st.rng arr;
    Array.to_list (Array.sub arr 0 k)
  end

let inject st immigrants =
  match immigrants with
  | [] -> ()
  | _ -> environmental_select st (Array.append st.pop (Array.of_list immigrants))

let run ?initial ~generations ~seed problem config =
  let rng = Numerics.Rng.create seed in
  let st = init ?initial problem config rng in
  step st generations;
  front st
