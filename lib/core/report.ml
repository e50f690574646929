type objective = {
  label : string;
  maximized : bool;
}

let value_of objectives (s : Moo.Solution.t) k =
  let v = s.Moo.Solution.f.(k) in
  if objectives.(k).maximized then -.v else v

let render ~objectives (o : Design.outcome) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let d = Array.length objectives in
  add "Pareto front: %d designs (%d evaluations)\n" (List.length o.Design.front)
    o.Design.evaluations;
  (match o.Design.front with
   | [] -> add "  (empty front)\n"
   | front ->
     for k = 0 to d - 1 do
       let vs = List.map (fun s -> value_of objectives s k) front in
       let lo = List.fold_left Float.min infinity vs in
       let hi = List.fold_left Float.max neg_infinity vs in
       add "  %-24s %12.4g .. %12.4g%s\n" objectives.(k).label lo hi
         (if objectives.(k).maximized then "  (maximized)" else "  (minimized)")
     done);
  add "Mined trade-offs:\n";
  List.iter
    (fun (m : Design.mined) ->
      add "  %-18s" m.Design.label;
      for k = 0 to d - 1 do
        add " %s=%.4g" objectives.(k).label (value_of objectives m.Design.solution k)
      done;
      add "  yield=%.1f%%\n" m.Design.yield_pct)
    o.Design.mined;
  add "Most robust design seen: %s at yield %.1f%%" o.Design.max_yield.Design.label
    o.Design.max_yield.Design.yield_pct;
  (match o.Design.max_yield.Design.solution.Moo.Solution.f with
   | f when Array.length f = d ->
     for k = 0 to d - 1 do
       add " %s=%.4g" objectives.(k).label
         (value_of objectives o.Design.max_yield.Design.solution k)
     done
   | _ -> ());
  add "\n";
  Buffer.contents buf

