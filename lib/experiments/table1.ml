type row = {
  algorithm : string;
  points : int;
  rp : float;
  gp : float;
  vp : float;
  evaluations : int;
}

let compute () =
  let env = Photo.Params.present ~tp_export:Photo.Params.high_export in
  let b = Scale.budgets (Scale.current ()) in
  let problem = Photo.Leaf.problem env in
  let pmo2_front, pmo2_evals = Runs.leaf_front_with_evals ~env in
  (* The paper's baseline is the original (2007) MOEA/D, which aggregates
     raw objectives — on this problem the nitrogen scale (~1e5) swamps the
     uptake scale (~40), which is exactly the weakness Table 1 exposes. *)
  let moead_cfg = { Ea.Moead.pop_size = b.Scale.pop_size } in
  let rng = Numerics.Rng.create 2011 in
  let st = Ea.Moead.init problem moead_cfg rng in
  Ea.Moead.step st b.Scale.moead_generations;
  let moead_front = Ea.Moead.front st in
  let moead_evals = Ea.Moead.evaluations st in
  let union = Moo.Coverage.union_front [ pmo2_front; moead_front ] in
  (* Normalized hypervolume over the union's bounding box. *)
  let ideal = Moo.Mine.ideal_point union in
  let nadir = Moo.Mine.nadir_point union in
  let ref_point = Array.mapi (fun i n -> n +. (0.05 *. (n -. ideal.(i)) +. 1e-9)) nadir in
  let vp front =
    Moo.Hypervolume.normalized ~ref_point ~ideal
      (List.map (fun s -> s.Moo.Solution.f) front)
  in
  [
    {
      algorithm = "PMO2";
      points = List.length pmo2_front;
      rp = Moo.Coverage.rp pmo2_front union;
      gp = Moo.Coverage.gp pmo2_front union;
      vp = vp pmo2_front;
      evaluations = pmo2_evals;
    };
    {
      algorithm = "MOEA-D";
      points = List.length moead_front;
      rp = Moo.Coverage.rp moead_front union;
      gp = Moo.Coverage.gp moead_front union;
      vp = vp moead_front;
      evaluations = moead_evals;
    };
  ]

let paper = [ ("PMO2", 775, 1.0, 1.0, 0.976); ("MOEA-D", 137, 0.0, 0.0, 0.376) ]

let print () =
  Printf.printf "== Table 1: Pareto-front analysis, PMO2 vs MOEA/D ==\n";
  Printf.printf "%-8s %8s %8s %8s %8s %10s\n" "Algo" "Points" "Rp" "Gp" "Vp" "Evals";
  List.iter
    (fun r ->
      Printf.printf "%-8s %8d %8.3f %8.3f %8.3f %10d\n" r.algorithm r.points r.rp r.gp
        r.vp r.evaluations)
    (compute ());
  Printf.printf "paper:\n";
  List.iter
    (fun (a, pts, rp, gp, vp) ->
      Printf.printf "%-8s %8d %8.3f %8.3f %8.3f\n" a pts rp gp vp)
    paper;
  let env = Photo.Params.present ~tp_export:Photo.Params.high_export in
  Format.printf "PMO2 run health: %a@." Runs.pp_faults (Runs.leaf_summary ~env)
