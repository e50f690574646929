(* The per-occurrence robustpath rules, as checks over the compiler's
   typed trees (compiler-libs 5.1).  Working on typedtrees rather than
   source text is what makes R1 precise: the instantiated type of every
   occurrence of [Stdlib.(=)] is in the tree, so "polymorphic equality at
   float" is a type test, not a regex guess.

   Interprocedural reasoning (R1 through generic helpers, R2/R7 taint,
   R10 lock discipline) lives in [Callgraph]/[Taint]/[Locks]; this module
   stays single-occurrence, apart from R12, which matches the values the
   interfaces export against the references the referrer units make. *)

open Typedtree

type t = {
  force_lib : bool; (* treat every file as library code (fixture testing) *)
  mutable acc : Finding.t list;
  mutable exports : (string * Location.t) list; (* R12: dotted key, the val's loc *)
  refs : (string, unit) Hashtbl.t; (* R12: dotted value paths referenced *)
  whole : (string, unit) Hashtbl.t; (* R12: modules referenced as a whole *)
}

let create ?(force_lib = false) () =
  { force_lib; acc = []; exports = []; refs = Hashtbl.create 1024; whole = Hashtbl.create 16 }

let file_of (loc : Location.t) = loc.loc_start.pos_fname

let is_lib t loc = t.force_lib || String.starts_with ~prefix:"lib/" (file_of loc)

let in_module ~suffix loc = String.ends_with ~suffix (file_of loc)

let finding rule (loc : Location.t) message =
  let p = loc.loc_start in
  { Finding.rule; file = p.pos_fname; line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; message }

let add t rule loc message = t.acc <- finding rule loc message :: t.acc

(* {2 R12: exports no other unit references}

   Keys are by compilation unit.  Dune's wrapped unit [Cache__Memo] is
   [Cache.Memo] seen from outside its library, so both spellings map to
   the dotted key ["Cache.Memo.find"], while a same-named module of
   another library keeps a key of its own. *)

let dotted name =
  let n = String.length name in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

let has_exports t = t.exports <> []

let check_interface t ~modname (sg : signature) =
  let rec values prefix (sg : signature) =
    List.iter
      (fun (item : signature_item) ->
        match item.sig_desc with
        | Tsig_value vd -> t.exports <- (prefix ^ "." ^ vd.val_name.txt, vd.val_loc) :: t.exports
        | Tsig_module
            { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sub; _ }; _ }
          ->
          values (prefix ^ "." ^ m) sub
        | _ -> ())
      sg.sig_items
  in
  match sg.sig_items with
  | item :: _ when is_lib t item.sig_loc -> values (dotted modname) sg
  | _ -> ()

let rec head_ident : Path.t -> Ident.t option = function
  | Pident id -> Some id
  | Pdot (p, _) -> head_ident p
  | _ -> None

let scan_references t (str : structure) =
  (* Local aliases ([module J = Obs.Json]) resolve to their target, so
     [J.obj] counts as a reference to [Obs.Json.obj]. *)
  let aliases = ref [] in
  let resolve p =
    let name = Path.name p in
    match head_ident p with
    | None -> dotted name
    | Some id -> (
      match List.find_opt (fun (a, _) -> Ident.same a id) !aliases with
      | Some (_, target) ->
        let h = String.length (Ident.name id) in
        target ^ String.sub name h (String.length name - h)
      | None -> dotted name)
  in
  let rec alias_target (m : module_expr) =
    match m.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (m, _, _, _) -> alias_target m
    | _ -> None
  in
  let bind id_opt m =
    match (id_opt, alias_target m) with
    | Some id, Some p ->
      aliases := (id, resolve p) :: !aliases;
      true
    | _ -> false
  in
  let expr sub (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Hashtbl.replace t.refs (resolve p) ()
    | Texp_letmodule (id, _, _, m, body) when bind id m -> sub.Tast_iterator.expr sub body
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let module_binding sub (mb : module_binding) =
    if not (bind mb.mb_id mb.mb_expr) then Tast_iterator.default_iterator.module_binding sub mb
  in
  (* A module used as a whole (functor argument, [include], packed) may
     reach any of its values; an [open] only brings names into scope. *)
  let module_expr sub (m : module_expr) =
    match m.mod_desc with
    | Tmod_ident (p, _) -> Hashtbl.replace t.whole (resolve p) ()
    | _ -> Tast_iterator.default_iterator.module_expr sub m
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr;
      module_binding;
      module_expr;
      open_declaration =
        (fun sub od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> Tast_iterator.default_iterator.open_declaration sub od);
    }
  in
  it.structure it str

let referenced t key =
  Hashtbl.mem t.refs key
  ||
  let rec prefixes i =
    match String.rindex_from_opt key i '.' with
    | None -> false
    | Some j -> Hashtbl.mem t.whole (String.sub key 0 j) || (j > 0 && prefixes (j - 1))
  in
  prefixes (String.length key - 1)

let unreferenced t =
  List.filter_map
    (fun (key, loc) ->
      if referenced t key then None
      else
        Some
          (finding Finding.R12 loc
             (Printf.sprintf "%s is exported but no unit outside test/ references it" key)))
    t.exports

let findings t = List.sort Finding.compare_by_loc (unreferenced t @ t.acc)

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
