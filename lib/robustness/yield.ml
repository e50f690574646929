type result = {
  nominal : float;
  yield_pct : float;
  trials : int;
  survivors : int;
}

(* Pooled Monte-Carlo yield over the stream ensemble.  Each trial is a
   pure function of (seed, trial index): derive the trial's generator,
   perturb, evaluate, compare.  The survivor count is order-free, so the
   result is identical at any worker count — and identical to a
   one-domain pool's inline loop, which is how the determinism tests pin
   it. *)
let gamma_pool ?pool ~seed ~f ?(delta = 0.10) ?(eps_frac = 0.05) ?(trials = 5000) ?index x =
  if trials <= 0 then
    invalid_arg "Robustness.Yield.gamma_pool: trials must be positive";
  let nominal = f x in
  let eps = eps_frac *. Float.abs nominal in
  let pool = match pool with Some p -> p | None -> Parallel.Pool.get () in
  let hits =
    Parallel.Pool.parallel_map pool ~n:trials (fun t ->
        let xstar = Perturb.stream_trial ~seed ~delta ?index x t in
        Float.abs (nominal -. f xstar) <= eps)
  in
  let survivors = Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 hits in
  {
    nominal;
    yield_pct = 100. *. float_of_int survivors /. float_of_int trials;
    trials;
    survivors;
  }
