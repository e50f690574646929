(* The per-occurrence robustpath rules, as checks over the compiler's
   typed trees (compiler-libs 5.1).  Working on typedtrees rather than
   source text is what makes R1 precise: the instantiated type of every
   occurrence of [Stdlib.(=)] is in the tree, so "polymorphic equality at
   float" is a type test, not a regex guess.

   Interprocedural reasoning (R1 through generic helpers, R2/R7 taint,
   R10 lock discipline) lives in [Callgraph]/[Taint]/[Locks]; this module
   stays single-occurrence. *)

open Typedtree

type t = {
  force_lib : bool; (* treat every file as library code (fixture testing) *)
  mutable acc : Finding.t list;
}

let create ?(force_lib = false) () = { force_lib; acc = [] }

let file_of (loc : Location.t) = loc.loc_start.pos_fname

let is_lib t loc = t.force_lib || String.starts_with ~prefix:"lib/" (file_of loc)

let in_module ~suffix loc = String.ends_with ~suffix (file_of loc)

let add t rule (loc : Location.t) message =
  let p = loc.loc_start in
  t.acc <-
    {
      Finding.rule;
      file = p.pos_fname;
      line = p.pos_lnum;
      col = p.pos_cnum - p.pos_bol;
      message;
    }
    :: t.acc

let findings t = List.sort Finding.compare_by_loc t.acc

(* {2 R1 helpers} *)

(* Structural float test on a type, without an environment (cmt envs are
   summaries; reconstructing them needs a load path).  Covers [float] and
   float inside tuples / list / array / option / ref — the shapes that
   actually occur here.  Opaque nominal types are skipped: conservative,
   so no false positives. *)
let rec mentions_float depth ty =
  depth < 10
  &&
  match Types.get_desc ty with
  | Tconstr (p, args, _) ->
    Path.same p Predef.path_float
    || ((Path.same p Predef.path_list || Path.same p Predef.path_array
       || Path.same p Predef.path_option
       || Path.name p = "Stdlib.ref")
       && List.exists (mentions_float (depth + 1)) args)
  | Ttuple tys -> List.exists (mentions_float (depth + 1)) tys
  | Tpoly (ty, _) -> mentions_float (depth + 1) ty
  | _ -> false

let first_arrow_arg ty =
  match Types.get_desc ty with Tarrow (_, a, _, _) -> Some a | _ -> None

let poly_compare_op name =
  match name with "Stdlib.=" | "Stdlib.<>" | "Stdlib.compare" -> true | _ -> false

(* {2 R4 helpers} *)

let rec wildcardish : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var _ -> true
  | Tpat_alias (p, _, _) -> wildcardish p
  | Tpat_or (a, b, _) -> wildcardish a || wildcardish b
  | _ -> false

let reraise_name = function
  | "Stdlib.raise" | "Stdlib.raise_notrace" | "Stdlib.Printexc.raise_with_backtrace" -> true
  | _ -> false

(* Does the handler body (or anything it contains) re-raise?  A handler
   that re-raises is a translator, not a swallower. *)
let contains_raise body =
  let found = ref false in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (path, _, _) when reraise_name (Path.name path) -> found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

let check_handler t (case : value case) =
  if wildcardish case.c_lhs && not (contains_raise case.c_rhs) then
    add t Finding.R4 case.c_lhs.pat_loc
      "catch-all handler swallows the exception (no re-raise) outside Runtime.Guard"

(* {2 R6 helpers} *)

let mutable_state_maker name =
  match name with
  | "Stdlib.ref" | "Stdlib.Hashtbl.create" | "Stdlib.Queue.create" | "Stdlib.Stack.create"
  | "Stdlib.Buffer.create" | "Stdlib.Bytes.create" ->
    true
  | _ -> false

(* {2 R9 helpers} *)

let process_control_name = function
  | "Unix.fork" | "UnixLabels.fork" | "Unix.create_process" | "Unix.create_process_env"
  | "UnixLabels.create_process" | "UnixLabels.create_process_env" | "Unix._exit"
  | "UnixLabels._exit" | "Stdlib.exit" ->
    true
  | _ -> false

(* {2 R11 helpers} *)

let wall_clock_name = function
  | "Unix.gettimeofday" | "UnixLabels.gettimeofday" | "Unix.time" | "UnixLabels.time"
  | "Stdlib.Sys.time" ->
    true
  | _ -> false

let wall_clock_allowed loc =
  (* Obs.Clock owns the one sanctioned clock; the shard supervisor needs
     real wall-clock deadlines to notice wedged workers. *)
  in_module ~suffix:"obs/clock.ml" loc
  || String.starts_with ~prefix:"lib/shard/" (file_of loc)

(* {2 The iterator} *)

let check_ident t loc name ty =
  (* R1 fires on every occurrence — applied or passed as a function value
     (e.g. [List.sort compare]) — whose instantiated first argument
     touches float. *)
  if poly_compare_op name then begin
    match first_arrow_arg ty with
    | Some arg when mentions_float 0 arg ->
      add t Finding.R1 loc
        (Printf.sprintf "polymorphic %s at a float-containing type"
           (match String.rindex_opt name '.' with
           | Some i -> String.sub name (i + 1) (String.length name - i - 1)
           | None -> name))
    | _ -> ()
  end;
  if name = "Stdlib.Random" || String.starts_with ~prefix:"Stdlib.Random." name then
    add t Finding.R2 loc (Printf.sprintf "%s is nondeterministic across runs" name);
  if
    (name = "Stdlib.Marshal" || String.starts_with ~prefix:"Stdlib.Marshal." name)
    && not (in_module ~suffix:"runtime/checkpoint.ml" loc)
  then add t Finding.R3 loc (Printf.sprintf "%s outside Runtime.Checkpoint" name);
  if
    is_lib t loc
    && (name = "Stdlib.Hashtbl.iter" || name = "Stdlib.Hashtbl.fold")
  then
    add t Finding.R7 loc
      (Printf.sprintf "%s: iteration order is unspecified"
         (String.sub name 7 (String.length name - 7)));
  if name = "Stdlib.Domain.spawn" then
    add t Finding.R8 loc
      "raw Domain.spawn: ad-hoc domains bypass the persistent pool's determinism and \
       lifecycle guarantees";
  if
    is_lib t loc
    && (not (String.starts_with ~prefix:"lib/shard/" (file_of loc)))
    && process_control_name name
  then
    add t Finding.R9 loc
      (Printf.sprintf
         "raw %s: process lifecycle outside Shard escapes supervision (no reaping, no \
          restart, no exit discipline)"
         name);
  if wall_clock_name name && not (wall_clock_allowed loc) then
    add t Finding.R11 loc
      (Printf.sprintf
         "%s reads the wall clock: results depend on when and where the run happens" name)

let expr t sub (e : expression) =
  (match e.exp_desc with
  | Texp_ident (path, _, _) -> check_ident t e.exp_loc (Path.name path) e.exp_type
  | Texp_try (_, cases) when not (in_module ~suffix:"runtime/guard.ml" e.exp_loc) ->
    List.iter (check_handler t) cases
  | Texp_match (_, cases, _) when not (in_module ~suffix:"runtime/guard.ml" e.exp_loc) ->
    List.iter
      (fun (case : computation case) ->
        match split_pattern case.c_lhs with
        | _, Some exn_pat ->
          check_handler t { case with c_lhs = exn_pat }
        | _, None -> ())
      cases
  | Texp_assert (inner, _) when is_lib t e.exp_loc -> (
    (* [assert false] marks unreachable code, not a precondition — allowed. *)
    match inner.exp_desc with
    | Texp_construct (_, { cstr_name = "false"; _ }, _) -> ()
    | _ ->
      add t Finding.R5 e.exp_loc
        "assert in library code disappears under -noassert and raises the wrong exception")
  | _ -> ());
  Tast_iterator.default_iterator.expr sub e

let module_expr t sub (m : module_expr) =
  (match m.mod_desc with
  | Tmod_ident (path, _) when Path.name path = "Stdlib.Random" ->
    add t Finding.R2 m.mod_loc "aliasing/opening Stdlib.Random"
  | _ -> ());
  Tast_iterator.default_iterator.module_expr sub m

let structure_item t sub (si : structure_item) =
  (match si.str_desc with
  | Tstr_value (_, bindings) when is_lib t si.str_loc ->
    List.iter
      (fun vb ->
        match vb.vb_expr.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, _)
          when mutable_state_maker (Path.name path) ->
          add t Finding.R6 vb.vb_loc
            (Printf.sprintf
               "module-toplevel mutable state (%s) is shared across parallel islands"
               (Path.name path))
        | _ -> ())
      bindings
  | _ -> ());
  Tast_iterator.default_iterator.structure_item sub si

let check_structure t (str : structure) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = expr t;
      module_expr = module_expr t;
      structure_item = structure_item t;
    }
  in
  it.structure it str
