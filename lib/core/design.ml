type config = {
  pmo2 : Pmo2.Archipelago.config;
  generations : int;
  seed : int;
  robustness_trials : int;
  sweep_points : int;
}

let default_config =
  {
    pmo2 = Pmo2.Archipelago.default_config;
    generations = 1000;
    seed = 42;
    robustness_trials = 5000;
    sweep_points = 50;
  }

type mined = {
  solution : Moo.Solution.t;
  label : string;
  yield_pct : float;
}

type outcome = {
  front : Moo.Solution.t list;
  mined : mined list;
  sweep : Robustness.Screen.entry list;
  max_yield : mined;
  evaluations : int;
}

let run ?property ?initial problem config =
  let property =
    match property with
    | Some f -> f
    | None -> fun x -> -.(problem.Moo.Problem.eval x).(0)
  in
  let result =
    Pmo2.Archipelago.run ~seed:config.seed ?initial ~generations:config.generations
      problem config.pmo2
  in
  let front = result.Pmo2.Archipelago.front in
  let seed = config.seed + 1 in
  let yield_of s =
    (Robustness.Yield.gamma_pool ~seed ~f:property ~trials:config.robustness_trials
       s.Moo.Solution.x)
      .Robustness.Yield.yield_pct
  in
  let mined =
    match front with
    | [] -> []
    | _ ->
      let cti = Moo.Mine.closest_to_ideal front in
      let shadows = Moo.Mine.shadow_minima front in
      let shadow_entries =
        Array.to_list
          (Array.mapi
             (fun k s ->
               { solution = s; label = Printf.sprintf "min f%d" k; yield_pct = yield_of s })
             shadows)
      in
      { solution = cti; label = "closest-to-ideal"; yield_pct = yield_of cti }
      :: shadow_entries
  in
  let sweep =
    Robustness.Screen.front_sweep ~seed ~f:property
      ~trials:(Stdlib.max 200 (config.robustness_trials / 10))
      ~k:config.sweep_points front
  in
  let candidates =
    mined
    @ List.map
        (fun (e : Robustness.Screen.entry) ->
          {
            solution = e.Robustness.Screen.solution;
            label = "sweep";
            yield_pct = e.yield.Robustness.Yield.yield_pct;
          })
        sweep
  in
  let max_yield =
    match candidates with
    | [] -> invalid_arg "Design.run: empty front"
    | c :: rest ->
      List.fold_left (fun best c -> if c.yield_pct > best.yield_pct then c else best) c rest
  in
  { front; mined; sweep; max_yield; evaluations = result.Pmo2.Archipelago.evaluations }
