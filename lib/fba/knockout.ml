type knockout = {
  removed : int list;
  target_flux : float;
  biomass_flux : float;
}

(* The bounds of reaction [j], read without copying the network's. *)
let bound t j =
  let r = Network.reaction t j in
  (r.Network.lb, r.Network.ub)

let with_biomass_floor ~t ~biomass ~min_biomass f =
  let lb, ub = bound t biomass in
  if min_biomass > ub then invalid_arg "Fba.Knockout: biomass floor exceeds its upper bound";
  Network.set_bounds t biomass (Float.max lb min_biomass) ub;
  let restore () = Network.set_bounds t biomass lb ub in
  match f () with
  | v ->
    restore ();
    v
  | exception e ->
    restore ();
    raise e

let solve_with_removed ?basis ~t ~target ~biomass ~min_biomass removed =
  let saved = List.map (fun j -> (j, bound t j)) removed in
  List.iter (fun j -> Network.set_bounds t j 0. 0.) removed;
  let restore () = List.iter (fun (j, (lb, ub)) -> Network.set_bounds t j lb ub) saved in
  Fun.protect ~finally:restore (fun () ->
      with_biomass_floor ~t ~biomass ~min_biomass (fun () ->
          match Analysis.fba_with_basis ?basis ~t ~objective:target () with
          | sol, _ -> Some { removed; target_flux = sol.Analysis.objective;
                             biomass_flux = sol.Analysis.fluxes.(biomass) }
          | exception Analysis.Infeasible_model _ -> None))

(* The wild-type optimal basis under the biomass floor: every knockout
   LP is the same problem with one (or two) variables pinned to zero, so
   the parent vertex is feasible for most children and skips their phase
   1.  [None] (cold starts throughout) when the wild type is itself
   infeasible — the screens still report whatever each child LP says. *)
let parent_basis ~t ~target ~biomass ~min_biomass =
  with_biomass_floor ~t ~biomass ~min_biomass (fun () ->
      match Analysis.fba_with_basis ~t ~objective:target () with
      | _, carry -> carry
      | exception Analysis.Infeasible_model _ -> None)

let ranked results =
  List.sort (fun a b -> Float.compare b.target_flux a.target_flux) results

let check_candidates ~target ~biomass candidates =
  List.iter
    (fun j ->
      if j = target || j = biomass then
        invalid_arg "Fba.Knockout: candidates must exclude the target and biomass reactions")
    candidates

let screen ~t ~target ~biomass ~min_biomass sets =
  let basis = parent_basis ~t ~target ~biomass ~min_biomass in
  List.filter_map (solve_with_removed ?basis ~t ~target ~biomass ~min_biomass) sets

let single ~t ~target ~biomass ~min_biomass ~candidates =
  check_candidates ~target ~biomass candidates;
  ranked (screen ~t ~target ~biomass ~min_biomass (List.map (fun j -> [ j ]) candidates))

let pairs ~t ~target ~biomass ~min_biomass ~candidates =
  check_candidates ~target ~biomass candidates;
  let rec all_pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> [ x; y ]) rest @ all_pairs rest
  in
  ranked (screen ~t ~target ~biomass ~min_biomass (all_pairs candidates))

type coupling = {
  removed_reactions : int list;
  biomass_opt : float;
  target_at_growth : float * float;
}

let growth_coupled ~t ~target ~biomass ~removed =
  (* Read every bound before pinning anything, and restore them on any
     exit: a bad index or an LP failure must not leave the caller's
     network knocked out. *)
  let bio_lb, bio_ub = bound t biomass in
  let saved = List.map (fun j -> (j, bound t j)) removed in
  let restore () =
    List.iter (fun (j, (lb, ub)) -> Network.set_bounds t j lb ub) saved;
    Network.set_bounds t biomass bio_lb bio_ub
  in
  Fun.protect ~finally:restore (fun () ->
      List.iter (fun j -> Network.set_bounds t j 0. 0.) removed;
      match Analysis.fba ~t ~objective:biomass with
      | exception Analysis.Infeasible_model _ -> None
      | growth when growth.Analysis.objective < 1e-9 -> None
      | growth ->
        let mu = growth.Analysis.objective in
        (* Fix growth (with a hair of slack for LP tolerances) and bound the
           target flux. *)
        Network.set_bounds t biomass (0.999 *. mu) bio_ub;
        (match Analysis.fva ~t ~reactions:[ target ] with
         | [ (_, window) ] ->
           Some { removed_reactions = removed; biomass_opt = mu; target_at_growth = window }
         | _ -> None
         | exception Analysis.Infeasible_model _ -> None))
