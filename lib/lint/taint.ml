(* Interprocedural passes over the call graph.

   R1 across call boundaries: a def that applies polymorphic compare at a
   type-variable type is a "carrier"; so is any def that calls a carrier
   with its own type variables still unbound in the instantiation, and so
   are the stdlib generics ([List.mem], ...) that compare internally.  A
   call that instantiates a carrier at a float-containing type is exactly
   the per-occurrence R1 hazard, one hop (or many) removed — the
   generalized ['a array] helper gap.

   R2/R7 flow: a def whose body contains an *active* (unsuppressed)
   nondeterminism source taints every transitive caller; each
   cross-module call into tainted code gets a finding naming the chain.
   Suppressed sources do not propagate — the justification asserts the
   nondeterminism cannot leak, and the whole point of requiring written
   justifications is to be able to trust them here. *)

module SM = Callgraph.SM
module SS = Set.Make (String)

let mkf rule (l : Callgraph.loc) message =
  { Finding.rule; file = l.l_file; line = l.l_line; col = l.l_col; message }

(* {2 Interprocedural R1} *)

type origin = { root : string; root_loc : Callgraph.loc option; via : string list }

let carriers defs calls =
  let seed =
    SM.fold
      (fun key (d : Callgraph.def) acc ->
        match d.d_compare with
        | Some l -> SM.add key { root = key; root_loc = Some l; via = [] } acc
        | None -> acc)
      defs SM.empty
  in
  (* Propagate: calling a carrier with a type variable still in the
     instantiation makes the caller a carrier too. *)
  let rec fix m =
    let m' =
      List.fold_left
        (fun m (c : Callgraph.call) ->
          match c.caller with
          | Some caller when not (SM.mem caller m) -> (
            if c.inst.at_tvar then
              match SM.find_opt c.callee m with
              | Some o -> SM.add caller { o with via = c.callee :: o.via } m
              | None ->
                if Callgraph.builtin_carrier c.callee then
                  SM.add caller { root = c.callee; root_loc = None; via = [ c.callee ] } m
                else m
            else m)
          | _ -> m)
        m calls
    in
    if SM.cardinal m' = SM.cardinal m then m else fix m'
  in
  fix seed

let r1_findings defs calls =
  let m = carriers defs calls in
  let describe callee =
    match SM.find_opt callee m with
    | Some { root; root_loc = Some l; via } ->
      let chain = if via = [] then "" else " via " ^ String.concat " -> " (List.rev via) in
      Printf.sprintf
        "%s applies polymorphic compare generically (%s:%d)%s; this call instantiates it \
         at a float-containing type"
        root l.l_file l.l_line chain
    | Some { root; _ } ->
      Printf.sprintf
        "%s compares with polymorphic equality internally; this call instantiates it at a \
         float-containing type"
        root
    | None ->
      Printf.sprintf
        "%s compares with polymorphic equality internally; this call instantiates it at a \
         float-containing type"
        callee
  in
  let seen = ref SS.empty in
  List.filter_map
    (fun (c : Callgraph.call) ->
      if
        c.inst.at_float
        && (SM.mem c.callee m || Callgraph.builtin_carrier c.callee)
        &&
        let k =
          Printf.sprintf "%s:%d:%d:%s" c.site.l_file c.site.l_line c.site.l_col c.callee
        in
        not (SS.mem k !seen)
        &&
        (seen := SS.add k !seen;
         true)
      then Some (mkf Finding.R1 c.site (describe c.callee))
      else None)
    calls

(* {2 R2/R7 nondeterminism flow} *)

type taint = {
  t_rule : Finding.rule;
  t_src : string;       (* e.g. "Stdlib.Random.int" *)
  t_chain : string list; (* this def down to the def holding the source *)
}

let flow_findings defs calls ~is_active =
  (* Roots: defs with an active source occurrence. *)
  let tainted =
    SM.fold
      (fun key (d : Callgraph.def) acc ->
        let active =
          List.filter (fun (s : Callgraph.source) -> is_active s.s_rule s.s_loc) d.d_sources
        in
        match active with
        | [] -> acc
        | s :: _ ->
          SM.add key { t_rule = s.s_rule; t_src = s.s_name; t_chain = [ key ] } acc)
      defs SM.empty
  in
  (* Reverse propagation to callers, breadth-first so chains stay short;
     ties resolved by sorted iteration for deterministic chains. *)
  let rec fix m =
    let m' =
      List.fold_left
        (fun m (c : Callgraph.call) ->
          match (c.caller, SM.find_opt c.callee m) with
          | Some caller, Some t when not (SM.mem caller m) ->
            SM.add caller { t with t_chain = caller :: t.t_chain } m
          | _ -> m)
        m
        (List.sort
           (fun (a : Callgraph.call) b -> String.compare a.callee b.callee)
           calls)
    in
    if SM.cardinal m' = SM.cardinal m then m else fix m'
  in
  let tainted = fix tainted in
  let mod_of key = match String.index_opt key '.' with
    | Some i -> String.sub key 0 i
    | None -> key
  in
  let seen = ref SS.empty in
  List.filter_map
    (fun (c : Callgraph.call) ->
      match SM.find_opt c.callee tainted with
      | Some t when c.caller_mod <> mod_of c.callee ->
        let k =
          Printf.sprintf "%s:%d:%d:%s" c.site.l_file c.site.l_line c.site.l_col
            (Finding.rule_id t.t_rule)
        in
        if SS.mem k !seen then None
        else begin
          seen := SS.add k !seen;
          Some
            (mkf t.t_rule c.site
               (Printf.sprintf "calls %s, which reaches %s (%s)" c.callee t.t_src
                  (String.concat " -> " t.t_chain)))
        end
      | _ -> None)
    calls

let findings cg ~is_active =
  let defs = Callgraph.defs cg and calls = Callgraph.calls cg in
  r1_findings defs calls @ flow_findings defs calls ~is_active
