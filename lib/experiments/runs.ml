let pmo2_config (b : Scale.budgets) =
  {
    Pmo2.Archipelago.default_config with
    migration_period = b.Scale.migration_period;
    nsga2 = { Ea.Nsga2.default_config with pop_size = b.Scale.pop_size };
    guard_penalty = Some 1e12;
  }

type summary = {
  front : Moo.Solution.t list;
  evaluations : int;
  island_crashes : int;
  guard : Runtime.Guard.stats array;
}

(* The memo tables are shared by every experiment in the process; all
   access goes through [lock] so tables/figures can be generated from
   parallel domains. *)
let lock = Mutex.create ()

(* robustlint: allow R6 — process-lifetime memo table; every access holds [lock] *)
let cache : (string, summary) Hashtbl.t = Hashtbl.create 8

(* robustlint: allow R6 — process-lifetime memo table; every access holds [lock] *)
let warm_cache : (string, float array) Hashtbl.t = Hashtbl.create 8

let key (env : Photo.Params.env) =
  Printf.sprintf "%s/tp=%g/%s" env.Photo.Params.label env.Photo.Params.tp_export
    (match Scale.current () with Scale.Quick -> "quick" | Scale.Full -> "full")

let compute_summary ~env =
  let b = Scale.budgets (Scale.current ()) in
  let problem = Photo.Leaf.problem env in
  (* Seed with the natural leaf so the front always brackets the
     operating point. *)
  let natural = Moo.Solution.evaluate problem (Array.make Photo.Enzyme.count 1.) in
  let r =
    Pmo2.Archipelago.run ~seed:2011 ~initial:[ natural ] ~generations:b.Scale.generations
      problem (pmo2_config b)
  in
  {
    front = r.Pmo2.Archipelago.front;
    evaluations = r.Pmo2.Archipelago.evaluations;
    island_crashes = r.Pmo2.Archipelago.failures;
    guard = r.Pmo2.Archipelago.guard_stats;
  }

let leaf_summary ~env =
  let k = key env in
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt cache k with
      | Some s -> s
      | None ->
        let s = compute_summary ~env in
        Hashtbl.replace cache k s;
        s)

let leaf_front ~env = (leaf_summary ~env).front

let leaf_front_with_evals ~env =
  let s = leaf_summary ~env in
  (s.front, s.evaluations)

let pp_faults ppf s =
  let crashes = s.island_crashes in
  let penalized =
    Array.fold_left (fun acc g -> acc + Runtime.Guard.failures g) 0 s.guard
  in
  if crashes = 0 && penalized = 0 then Format.fprintf ppf "no faults"
  else begin
    Format.fprintf ppf "%d island crash%s absorbed" crashes
      (if crashes = 1 then "" else "es");
    Array.iteri
      (fun i g ->
        if Runtime.Guard.failures g > 0 then
          Format.fprintf ppf "; island %d guard: %a" i Runtime.Guard.pp_stats g)
      s.guard
  end

let uptake_property ~env =
  let k = key env in
  let warm =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt warm_cache k with
        | Some y -> y
        | None ->
          let y = (Photo.Steady_state.natural env).Photo.Steady_state.y in
          Hashtbl.replace warm_cache k y;
          y)
  in
  fun ratios -> Photo.Steady_state.uptake_score (Photo.Steady_state.evaluate ~y0:warm ~env ~ratios ())
