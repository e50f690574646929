type config = {
  pop_size : int;
  archive_size : int;
  cache : Moo.Solution.t Cache.Memo.t option;
}

let default_config = { pop_size = 100; archive_size = 100; cache = None }

(* Same contract as [Nsga2.evaluate_batch]: variation has already
   consumed the generator, evaluation is a pure function of the vector,
   so the deduped/memoized batch is bit-identical to the sequential
   map. *)
let evaluate_batch problem config xs =
  Cache.Batch.evaluate ?memo:config.cache ~n:(Array.length xs)
    ~key:(fun i -> xs.(i))
    (fun i -> Moo.Solution.evaluate problem xs.(i))

type state = {
  problem : Moo.Problem.t;
  config : config;
  rng : Numerics.Rng.t;
  mutable pop : Moo.Solution.t array;
  mutable arch : Moo.Solution.t array;
  mutable evals : int;
  mutable gen : int;
}

let objective_distance a b = Numerics.Vec.dist2 a.Moo.Solution.f b.Moo.Solution.f

(* SPEA2 fitness over a combined set: strength S(i) = number of solutions
   i dominates; raw fitness R(i) = sum of strengths of i's dominators;
   density D(i) = 1 / (sigma_k + 2) with sigma_k the distance to the k-th
   nearest neighbor, k = sqrt(set size). *)
let fitness set =
  let n = Array.length set in
  let strength = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Moo.Dominance.dominates set.(i) set.(j) then
        strength.(i) <- strength.(i) + 1
    done
  done;
  let raw = Array.make n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Moo.Dominance.dominates set.(j) set.(i) then
        raw.(i) <- raw.(i) +. float_of_int strength.(j)
    done
  done;
  let k = int_of_float (sqrt (float_of_int n)) in
  let k = Stdlib.max 1 (Stdlib.min k (n - 1)) in
  Array.mapi
    (fun i _ ->
      if n = 1 then raw.(i)
      else begin
        let dists = Array.make (n - 1) 0. in
        let idx = ref 0 in
        for j = 0 to n - 1 do
          if j <> i then begin
            dists.(!idx) <- objective_distance set.(i) set.(j);
            incr idx
          end
        done;
        Array.sort Float.compare dists;
        let sigma_k = dists.(Stdlib.min (k - 1) (n - 2)) in
        raw.(i) +. (1. /. (sigma_k +. 2.))
      end)
    set

(* Environmental selection: keep the non-dominated set, truncating by
   iterative removal of the solution with the smallest nearest-neighbor
   distance (ties broken on the next-nearest), or filling with the best
   dominated solutions. *)
let environmental_select config combined =
  let fit = fitness combined in
  let nd = ref [] in
  Array.iteri (fun i s -> if fit.(i) < 1. then nd := s :: !nd) combined;
  let nd = Array.of_list !nd in
  let target = config.archive_size in
  if Array.length nd = target then nd
  else if Array.length nd < target then begin
    (* Fill with the best dominated solutions by fitness. *)
    let order = Array.init (Array.length combined) (fun i -> i) in
    Array.sort (fun a b -> Float.compare fit.(a) fit.(b)) order;
    Array.map (fun i -> combined.(i)) (Array.sub order 0 (Stdlib.min target (Array.length combined)))
  end
  else begin
    (* Truncate by nearest-neighbor distance. *)
    let alive = Array.to_list nd in
    let rec truncate alive =
      if List.length alive <= target then alive
      else begin
        let arr = Array.of_list alive in
        let n = Array.length arr in
        (* For each member, its sorted distance vector to the others. *)
        let dvs =
          Array.init n (fun i ->
              let ds =
                Array.init (n - 1) (fun j ->
                    let j = if j >= i then j + 1 else j in
                    objective_distance arr.(i) arr.(j))
              in
              Array.sort Float.compare ds;
              ds)
        in
        (* Lexicographic comparison of distance vectors: remove the one
           with the smallest. *)
        let victim = ref 0 in
        for i = 1 to n - 1 do
          let rec cmp k =
            if k >= Array.length dvs.(i) then 0
            else if dvs.(i).(k) < dvs.(!victim).(k) then -1
            else if dvs.(i).(k) > dvs.(!victim).(k) then 1
            else cmp (k + 1)
          in
          if cmp 0 < 0 then victim := i
        done;
        let v = arr.(!victim) in
        truncate (List.filter (fun s -> s != v) alive)
      end
    in
    Array.of_list (truncate alive)
  end

let init ?(initial = []) problem config rng =
  if not (config.pop_size >= 4 && config.archive_size >= 2) then
    invalid_arg "Ea.Spea2.init: need pop_size >= 4 and archive_size >= 2";
  let seeded = Array.of_list initial in
  let ns = Stdlib.min (Array.length seeded) config.pop_size in
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
      arch = [||];
      evals = config.pop_size - Stdlib.min (Array.length seeded) config.pop_size;
      gen = 0;
    }
  in
  st.arch <- environmental_select config pop;
  st

let binary_tournament st fit =
  let n = Array.length st.arch in
  let a = Numerics.Rng.int st.rng n and b = Numerics.Rng.int st.rng n in
  if fit.(a) <= fit.(b) then a else b

let step st n =
  let p = st.problem in
  let pm = Operators.mutation_prob p.Moo.Problem.n_var in
  for _ = 1 to n do
    let fit = fitness st.arch in
    let children = ref [] in
    for _ = 1 to st.config.pop_size / 2 do
      let i = binary_tournament st fit and j = binary_tournament st fit in
      let c1, c2 =
        Operators.sbx_crossover ~eta:Operators.eta_c ~prob:Operators.crossover_prob
          ~rng:st.rng ~lower:p.Moo.Problem.lower ~upper:p.Moo.Problem.upper
          st.arch.(i).Moo.Solution.x st.arch.(j).Moo.Solution.x
      in
      let mutate c =
        Operators.polynomial_mutation ~eta:Operators.eta_m ~prob:pm ~rng:st.rng
          ~lower:p.Moo.Problem.lower ~upper:p.Moo.Problem.upper c
      in
      children := mutate c1 :: mutate c2 :: !children
    done;
    let xs = Array.of_list !children in
    (* Requested evaluations, not cache misses — see [Nsga2]. *)
    st.evals <- st.evals + Array.length xs;
    st.pop <- evaluate_batch p st.config xs;
    st.arch <- environmental_select st.config (Array.append st.arch st.pop);
    st.gen <- st.gen + 1
  done


let front st = Moo.Dominance.non_dominated (Array.to_list st.arch)

let evaluations st = st.evals

type snapshot = {
  snap_pop : Moo.Solution.t array;
  snap_arch : Moo.Solution.t array;
  snap_evals : int;
  snap_gen : int;
  snap_rng : int64;
}

let snapshot st =
  {
    snap_pop = Array.copy st.pop;
    snap_arch = Array.copy st.arch;
    snap_evals = st.evals;
    snap_gen = st.gen;
    snap_rng = Numerics.Rng.state st.rng;
  }

let restore st snap =
  st.pop <- Array.copy snap.snap_pop;
  st.arch <- Array.copy snap.snap_arch;
  st.evals <- snap.snap_evals;
  st.gen <- snap.snap_gen;
  Numerics.Rng.set_state st.rng snap.snap_rng

let select_emigrants st k =
  let f = Array.of_list (front st) in
  if Array.length f <= k then Array.to_list f
  else begin
    Numerics.Rng.shuffle st.rng f;
    Array.to_list (Array.sub f 0 k)
  end

let inject st immigrants =
  match immigrants with
  | [] -> ()
  | _ ->
    st.arch <-
      environmental_select st.config (Array.append st.arch (Array.of_list immigrants))

