(* The projector is factored and the bounds are read once, when the
   closure is built, like [problem]'s box: each call then projects and
   clips in place and allocates nothing. *)
let repair (g : Geobacter.model) =
  let project = Network.projector g.net in
  let bounds = Network.bounds g.net in
  let lower = Array.map fst bounds and upper = Array.map snd bounds in
  fun v ->
    project v;
    for j = 0 to Array.length v - 1 do
      v.(j) <- Float.min upper.(j) (Float.max lower.(j) v.(j))
    done

let relaxed_violation (g : Geobacter.model) ~eps v =
  Float.max 0. (Network.violation g.net v -. eps)

(* Checkpoints validate the problem name, so it keeps its formulation
   suffix. *)
let problem ?(eps = 0.005) (g : Geobacter.model) =
  let bounds = Network.bounds g.net in
  let lower = Array.map fst bounds in
  let upper = Array.map snd bounds in
  Moo.Problem.make ~name:"geobacter/penalty" ~n_obj:2 ~lower ~upper
    ~violation:(relaxed_violation g ~eps)
    (fun v -> [| -.v.(g.ep); -.v.(g.bp) |])

(* The Gaussian step's scale, relative to each flux's range. *)
let sigma = 0.01

let flux_variation (g : Geobacter.model) () =
  let repair = repair g in
  let bounds = Network.bounds g.net in
  let n = Array.length bounds in
  let scale =
    Array.map
      (fun (lo, hi) ->
        let span = Float.min (hi -. lo) 200. in
        sigma *. span)
      bounds
  in
  let child rng p1 p2 =
    (* Whole-arithmetic blend: steady-state flux sets are convex, so a
       blend of two near-feasible parents stays near-feasible. *)
    let t = Numerics.Rng.uniform rng (-0.1) 1.1 in
    let c = Array.create_float n in
    for i = 0 to n - 1 do
      c.(i) <- (t *. p1.(i)) +. ((1. -. t) *. p2.(i))
    done;
    (* Sparse Gaussian perturbation: a handful of fluxes move. *)
    let k = 1 + Numerics.Rng.int rng 4 in
    for _ = 1 to k do
      let j = Numerics.Rng.int rng n in
      c.(j) <- c.(j) +. Numerics.Rng.gaussian ~sigma:scale.(j) rng
    done;
    (* A couple of project/clip rounds keep the residual violation small
       enough for the epsilon-feasibility band. *)
    for _ = 1 to 3 do
      repair c
    done;
    c
  in
  fun rng p1 p2 ->
    (* The second child draws from [rng] first: the order the operator
       has always used, which checkpoints and fronts record. *)
    let c2 = child rng p1 p2 in
    let c1 = child rng p1 p2 in
    (c1, c2)

let ep_of (s : Moo.Solution.t) = -.s.Moo.Solution.f.(0)
let bp_of (s : Moo.Solution.t) = -.s.Moo.Solution.f.(1)

let seeds ?eps (g : Geobacter.model) ~levels =
  let p = problem ?eps g in
  let saved = Network.bounds g.net in
  (* Seed LPs differ only in the biomass floor: warm-start each level
     from the previous level's optimal basis. *)
  let prev = ref None in
  let out =
    List.filter_map
      (fun level ->
        let l, u = saved.(g.bp) in
        if level > u then None
        else begin
          Network.set_bounds g.net g.bp (Float.max l level) u;
          let r =
            match Analysis.fba_with_basis ?basis:!prev ~t:g.net ~objective:g.ep () with
            | sol, carry ->
              (match carry with Some _ -> prev := carry | None -> ());
              Some (Moo.Solution.evaluate p sol.Analysis.fluxes)
            | exception Analysis.Infeasible_model _ -> None
          in
          Network.set_bounds g.net g.bp l u;
          r
        end)
      levels
  in
  Array.iteri (fun j (l, u) -> Network.set_bounds g.net j l u) saved;
  out
