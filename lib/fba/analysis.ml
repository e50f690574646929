type solution = { objective : float; fluxes : float array }

exception Infeasible_model of string

let spec_of ~t ~obj =
  let n = Network.n_reactions t in
  let m = Network.n_metabolites t in
  let cols = Network.columns t in
  let lo = Array.make n 0. and up = Array.make n 0. in
  Array.iteri
    (fun j (l, u) ->
      lo.(j) <- l;
      up.(j) <- u)
    (Network.bounds t);
  { Lp.Simplex.n_rows = m; cols; rhs = Array.make m 0.; obj; lo; up }

let solve_spec_basis ?basis spec =
  (* With a parent basis in hand the solver runs its dual decision tree:
     the FBA warm-start pattern — same network, perturbed bounds or
     objective — is exactly the bounds-only regime the dual repair was
     built for, and anything it cannot repair falls back inside the
     solver. *)
  let result = Lp.Simplex.solve ?basis spec in
  match result with
  | Lp.Simplex.Optimal { x; objective }, carry -> ({ objective; fluxes = x }, carry)
  | Lp.Simplex.Infeasible, _ -> raise (Infeasible_model "LP infeasible")
  | Lp.Simplex.Unbounded, _ -> raise (Infeasible_model "LP unbounded")

let multi_obj ~t ~objective =
  let n = Network.n_reactions t in
  let obj = Array.make n 0. in
  List.iter
    (fun (j, w) ->
      if not (0 <= j && j < n) then invalid_arg "Fba.Analysis: objective reaction out of range";
      obj.(j) <- obj.(j) +. w)
    objective;
  obj

let fba_multi_with_basis ?basis ~t ~objective () =
  solve_spec_basis ?basis (spec_of ~t ~obj:(multi_obj ~t ~objective))

let fba_multi ~t ~objective = fst (fba_multi_with_basis ~t ~objective ())

let fba_with_basis ?basis ~t ~objective () =
  fba_multi_with_basis ?basis ~t ~objective:[ (objective, 1.) ] ()

let fba ~t ~objective = fst (fba_with_basis ~t ~objective ())

let fva ~t ~reactions =
  (* All 2·|reactions| LPs share the constraint matrix and bounds and
     differ only in the objective, so any optimal basis remains a
     feasible vertex of every other direction: warm-start each one from
     a single parent basis (the first direction's optimum).  The parent
     beats chaining the previous direction's basis because consecutive
     FVA objectives point at unrelated corners — each chained hop walks
     back across the polytope, while the parent vertex stays a central
     few pivots from most single-coordinate optima.  The
     fluxes/objectives are whatever the solver would also produce cold —
     warm starting changes the pivot count, not the optimum. *)
  let parent = ref None in
  List.map
    (fun j ->
      let n = Network.n_reactions t in
      let solve_dir sign =
        let obj = Array.make n 0. in
        obj.(j) <- sign;
        let sol, carry = solve_spec_basis ?basis:!parent (spec_of ~t ~obj) in
        (match (!parent, carry) with None, Some _ -> parent := carry | _ -> ());
        sol.objective
      in
      let hi = solve_dir 1. in
      let lo = -.solve_dir (-1.) in
      (j, (lo, hi)))
    reactions

let epsilon_constraint ~t ~primary ~secondary ~levels =
  let saved = Network.bounds t in
  let restore () =
    Array.iteri (fun j (l, u) -> Network.set_bounds t j l u) saved
  in
  (* Consecutive levels move one bound slightly; the optimal basis of
     one level is usually primal-feasible (or near it) for the next, so
     threading it skips phase 1 on most levels of the sweep. *)
  let prev = ref None in
  Fun.protect ~finally:restore (fun () ->
      List.filter_map
        (fun level ->
          let l, u = saved.(secondary) in
          if level > u then None
          else begin
            Network.set_bounds t secondary (Float.max l level) u;
            match fba_with_basis ?basis:!prev ~t ~objective:primary () with
            | sol, carry ->
              (match carry with Some _ -> prev := carry | None -> ());
              Some (sol.objective, level)
            | exception Infeasible_model _ -> None
          end)
        levels)
