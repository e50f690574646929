type entry = {
  solution : Moo.Solution.t;
  yield : Yield.result;
}

(* Item [i] screens under its own seed [seed + i], so a screen's results
   depend on neither the pool width nor the other items. *)
let screen_solutions ~seed ~f ?trials sols =
  List.mapi
    (fun i s ->
      let x = s.Moo.Solution.x in
      { solution = s; yield = Yield.gamma_pool ~seed:(seed + i) ~f ?trials x })
    sols

let front_sweep ~seed ~f ?trials ~k front =
  screen_solutions ~seed ~f ?trials (Moo.Mine.equally_spaced ~k front)

type local_profile = { index : int; yield_pct : float }

let local_analysis ~seed ~f ?(trials = 200) x =
  List.init (Array.length x) (fun index ->
      let y = Yield.gamma_pool ~seed:(seed + index) ~f ~trials ~index x in
      { index; yield_pct = y.Yield.yield_pct })

let max_yield = function
  | [] -> invalid_arg "Screen.max_yield: empty"
  | e :: rest ->
    List.fold_left
      (fun best e ->
        if e.yield.Yield.yield_pct > best.yield.Yield.yield_pct then e else best)
      e rest
