(* R10: lock discipline, learned from the tree's own idioms rather than
   imposed on it.

   A record type with a [Mutex.t] field and at least one mutable field is
   "guarded" (Cache.Memo's [t], Parallel.Pool's [job]); a module with a
   toplevel mutex and toplevel mutable containers guards those globals
   (Experiments.Runs, Obs.Span).  The pass then walks every function body
   tracking which locks are held along the sequential spine —
   [Mutex.lock]/[unlock] statements, [Mutex.protect], and learned
   lock-wrapper functions ([with_lock], [locked]) whose closure argument
   runs under the lock — and flags:

   - reads/writes of a guarded mutable field, or container operations on
     a guarded global, with no appropriate lock held;
   - acquiring a mutex already held (self-deadlock with [Stdlib.Mutex]);
   - a pair of global mutexes acquired in both orders anywhere in the
     program (deadlock-prone).

   Two escape hatches keep the real tree honest without drowning it:
   a record constructed locally in the same function is exempt (nobody
   else can see it yet — [Pool.create] filling in [t.workers]), and a
   def whose every call site runs under the lock is exempt via a
   fixpoint ([Memo.unlink] is only ever called from inside [with_lock]).
   Anything else needs the lock or a justified suppression. *)

open Typedtree
module SS = Set.Make (String)
module SM = Map.Make (String)

(* Held-lock keys: ["g:Mod.name"] for a toplevel mutex, ["f:base.field"]
   for a record's own mutex field reached from variable [base], and
   ["x:..."] for mutexes the pass cannot attribute (still counts as
   "some lock held" for the call-site fixpoint, matches nothing). *)

type wkey = Kverbatim of string | Kfield of string

type event = { ev_callee : string; ev_caller : string option; ev_held : bool }

type t = {
  mutable gtypes : string SM.t;      (* "Mod.tyname" -> lock field name *)
  mutable mutexes : SS.t;            (* "Mod.name" toplevel mutexes *)
  mutable candidates : SS.t;         (* "Mod.name" toplevel mutable containers *)
  mutable mutex_mods : SS.t;         (* modules owning at least one mutex *)
  mutable wrappers : wkey list SM.t; (* def key -> keys its closure arg runs under *)
  mutable pending : (string * Finding.t) list;
  mutable events : event list;
  mutable edges : (string * string * Callgraph.loc) list;
  mutable immediate : Finding.t list;
}

let create () =
  {
    gtypes = SM.empty;
    mutexes = SS.empty;
    candidates = SS.empty;
    mutex_mods = SS.empty;
    wrappers = SM.empty;
    pending = [];
    events = [];
    edges = [];
    immediate = [];
  }

let loc_of (l : Location.t) =
  let p = l.loc_start in
  {
    Callgraph.l_file = p.pos_fname;
    l_line = p.pos_lnum;
    l_col = p.pos_cnum - p.pos_bol;
  }

let mkf (l : Callgraph.loc) message =
  { Finding.rule = Finding.R10; file = l.l_file; line = l.l_line; col = l.l_col; message }

let show_key k =
  match String.index_opt k ':' with
  | Some i -> String.sub k (i + 1) (String.length k - i - 1)
  | None -> k

(* {2 Pass A: declarations} *)

let rec is_mutex_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    (* the path spells differently per context: [Stdlib.Mutex.t],
       [Stdlib__Mutex.t], or just [Mutex.t] — normalize collapses all *)
    Callgraph.normalize (Path.name p) = "Mutex.t"
  (* label declarations wrap the field type in a Tpoly node *)
  | Types.Tpoly (inner, _) -> is_mutex_ty inner
  | _ -> false

let scan_type_decl t ~modname (td : type_declaration) =
  match td.typ_kind with
  | Ttype_record lds ->
    let lock =
      List.find_opt (fun ld -> is_mutex_ty ld.ld_type.ctyp_type) lds
    in
    let has_mutable =
      List.exists (fun ld -> ld.ld_mutable = Asttypes.Mutable) lds
    in
    (match (lock, has_mutable) with
    | Some ld, true ->
      t.gtypes <-
        SM.add (modname ^ "." ^ Ident.name td.typ_id) (Ident.name ld.ld_id) t.gtypes
    | _ -> ())
  | _ -> ()

let head_name (e : expression) =
  let rec head e =
    match e.exp_desc with
    | Texp_apply (f, _) -> head f
    | Texp_ident (p, _, _) -> Some (Path.name p)
    | _ -> None
  in
  head e

let scan_toplevel_value t ~modname (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) -> (
    let full = modname ^ "." ^ Ident.name id in
    match head_name vb.vb_expr with
    | Some "Stdlib.Mutex.create" ->
      t.mutexes <- SS.add full t.mutexes;
      t.mutex_mods <- SS.add modname t.mutex_mods
    | Some n when Rules.mutable_state_maker n -> t.candidates <- SS.add full t.candidates
    | _ -> ())
  | _ -> ()

let rec scan_types t ~modname (items : structure_item list) =
  List.iter
    (fun (si : structure_item) ->
      match si.str_desc with
      | Tstr_type (_, tds) -> List.iter (scan_type_decl t ~modname) tds
      | Tstr_value (_, vbs) -> List.iter (scan_toplevel_value t ~modname) vbs
      | Tstr_module mb -> scan_types_module t mb
      | Tstr_recmodule mbs -> List.iter (scan_types_module t) mbs
      | _ -> ())
    items

and scan_types_module t (mb : module_binding) =
  let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
  match mb.mb_expr.mod_desc with
  | Tmod_structure s -> scan_types t ~modname:name s.str_items
  | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
    scan_types t ~modname:name s.str_items
  | _ -> ()

(* {2 Pass B: bodies} *)

type env = {
  modname : string;
  def : string option;
  held : SS.t;
  constructed : SS.t;
  params : SS.t;           (* function-typed parameters of the current def *)
  wrap_acc : SS.t ref;     (* keys held when a param was invoked *)
}

let base_of (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Ident.name id
  | _ -> "?"

(* Flatten nested application and the [@@] / [|>] pipes into
   (head path, positional args), so [with_lock t @@ fun () -> ...] looks
   like [with_lock t (fun () -> ...)]. *)
let rec flatten (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (p, [])
  | Texp_apply (f, args) -> (
    let args = List.filter_map (fun (_, a) -> a) args in
    match flatten f with
    | Some (p, pre) -> (
      match Path.name p with
      | "Stdlib.@@" -> (
        match pre @ args with
        | g :: rest -> (
          match flatten g with Some (p', pre') -> Some (p', pre' @ rest) | None -> None)
        | [] -> None)
      | "Stdlib.|>" -> (
        match pre @ args with
        | x :: g :: rest -> (
          match flatten g with
          | Some (p', pre') -> Some (p', pre' @ (x :: rest))
          | None -> None)
        | _ -> None)
      | _ -> Some (p, pre @ args))
    | None -> None)
  | _ -> None

let key_of t env (m : expression) =
  match m.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
    let n = Ident.name id in
    let full = env.modname ^ "." ^ n in
    if SS.mem full t.mutexes then "g:" ^ full else "x:" ^ n
  | Texp_ident (p, _, _) ->
    let full = Callgraph.normalize (Path.name p) in
    if SS.mem full t.mutexes then "g:" ^ full else "x:" ^ full
  | Texp_field (e0, _, ld) -> "f:" ^ base_of e0 ^ "." ^ ld.lbl_name
  | _ -> "x:?"

let acquire t env k (loc : Location.t) =
  if not (String.contains k '?') then begin
    let site = loc_of loc in
    if SS.mem k env.held then
      t.immediate <-
        mkf site
          (Printf.sprintf "mutex %s acquired while already held (Stdlib.Mutex self-deadlocks)"
             (show_key k))
        :: t.immediate;
    if String.length k > 0 && k.[0] = 'g' then
      SS.iter
        (fun h -> if h <> k && String.length h > 0 && h.[0] = 'g' then
            t.edges <- (h, k, site) :: t.edges)
        env.held
  end

let record_key_of_label env (ld : Types.label_description) =
  let raw =
    match Types.get_desc ld.lbl_res with
    | Types.Tconstr (p, _, _) -> Path.name p
    | _ -> ""
  in
  if raw = "" then None
  else if String.contains raw '.' then Some (Callgraph.normalize raw)
  else Some (env.modname ^ "." ^ raw)

let check_field t env (e : expression) (e0 : expression) (ld : Types.label_description) =
  match record_key_of_label env ld with
  | Some tykey when ld.lbl_mut = Asttypes.Mutable -> (
    match SM.find_opt tykey t.gtypes with
    | Some lockfield -> (
      let base = base_of e0 in
      let ok =
        SS.mem ("f:" ^ base ^ "." ^ lockfield) env.held
        || SS.mem ("f:?." ^ lockfield) env.held
        || SS.mem base env.constructed
      in
      if not ok then
        match env.def with
        | Some d ->
          t.pending <-
            ( d,
              mkf (loc_of e.exp_loc)
                (Printf.sprintf
                   "mutable field %s.%s of lock-guarded %s accessed without %s held"
                   base ld.lbl_name tykey lockfield) )
            :: t.pending
        | None -> ())
    | None -> ())
  | _ -> ()

let is_container_op raw =
  let pre p = String.starts_with ~prefix:p raw in
  pre "Stdlib.Hashtbl." || pre "Stdlib.Queue." || pre "Stdlib.Stack."
  || pre "Stdlib.Buffer." || pre "Stdlib.Array."
  || raw = "Stdlib.!" || raw = "Stdlib.:=" || raw = "Stdlib.incr" || raw = "Stdlib.decr"

let check_global_arg t env (a : expression) =
  match a.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
    let n = Ident.name id in
    let full = env.modname ^ "." ^ n in
    if SS.mem full t.candidates && SS.mem env.modname t.mutex_mods then
      let ok =
        SS.exists (fun k -> String.starts_with ~prefix:("g:" ^ env.modname ^ ".") k) env.held
      in
      if not ok then
        match env.def with
        | Some d ->
          t.pending <-
            ( d,
              mkf (loc_of a.exp_loc)
                (Printf.sprintf
                   "mutable global %s is mutex-guarded in this module; operation without \
                    the module's mutex held"
                   full) )
            :: t.pending
        | None -> ())
  | _ -> ()

let effect_of t env (e : expression) held =
  match flatten e with
  | Some (p, [ m ]) -> (
    match Path.name p with
    | "Stdlib.Mutex.lock" -> SS.add (key_of t env m) held
    | "Stdlib.Mutex.unlock" -> SS.remove (key_of t env m) held
    | _ -> held)
  | _ -> held

let rec walk t env (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
    if SS.mem (Ident.name id) env.params && not (SS.is_empty env.held) then
      env.wrap_acc := SS.union env.held !(env.wrap_acc)
  | Texp_field (e0, _, ld) ->
    check_field t env e e0 ld;
    walk t env e0
  | Texp_setfield (e0, _, ld, e1) ->
    check_field t env e e0 ld;
    walk t env e0;
    walk t env e1
  | Texp_sequence (a, b) ->
    walk t env a;
    walk t { env with held = effect_of t env a env.held } b
  | Texp_let (_, vbs, body) ->
    let env' =
      List.fold_left
        (fun acc vb ->
          walk t env vb.vb_expr;
          let held = effect_of t env vb.vb_expr acc.held in
          let constructed =
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | (Tpat_var (id, _) | Tpat_alias (_, id, _)), Texp_record _ ->
              SS.add (Ident.name id) acc.constructed
            | _ -> acc.constructed
          in
          { acc with held; constructed })
        env vbs
    in
    walk t env' body
  | Texp_function { cases; _ } ->
    (* A bare lambda's body runs later, under whatever locks its caller
       holds then — not the ones held here.  Closures whose execution
       context IS known ([Mutex.protect], wrapper args) are walked from
       [handle_call] and never reach this case. *)
    List.iter (fun c -> walk t { env with held = SS.empty } c.c_rhs) cases
  | Texp_apply _ -> (
    match flatten e with
    | Some (p, args) -> handle_call t env e p args
    | None -> iter_children t env e)
  | _ -> iter_children t env e

and iter_children t env e =
  let it =
    { Tast_iterator.default_iterator with expr = (fun _ e -> walk t env e) }
  in
  Tast_iterator.default_iterator.expr it e

and walk_closure t env (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } -> List.iter (fun c -> walk t env c.c_rhs) cases
  | _ -> walk t env e

and handle_call t env (e : expression) p args =
  let raw = Path.name p in
  (match p with
  | Path.Pident id when SS.mem (Ident.name id) env.params && not (SS.is_empty env.held) ->
    env.wrap_acc := SS.union env.held !(env.wrap_acc)
  | _ -> ());
  match raw with
  | "Stdlib.Mutex.lock" -> (
    match args with
    | [ m ] ->
      walk t env m;
      acquire t env (key_of t env m) e.exp_loc
    | _ -> List.iter (walk t env) args)
  | "Stdlib.Mutex.unlock" | "Stdlib.Mutex.try_lock" -> List.iter (walk t env) args
  | "Stdlib.Mutex.protect" -> (
    match args with
    | [ m; fn ] ->
      walk t env m;
      let k = key_of t env m in
      acquire t env k e.exp_loc;
      walk_closure t { env with held = SS.add k env.held } fn
    | _ -> List.iter (walk t env) args)
  | _ -> (
    let callee =
      match p with
      | Path.Pident id -> env.modname ^ "." ^ Ident.name id
      | _ -> Callgraph.normalize raw
    in
    match SM.find_opt callee t.wrappers with
    | Some wks ->
      let inst_of = function
        | Kverbatim k -> k
        | Kfield lf -> (
          let base =
            List.find_map
              (fun (a : expression) ->
                match a.exp_desc with
                | Texp_ident (Path.Pident id, _, _) -> Some (Ident.name id)
                | _ -> None)
              args
          in
          match base with Some b -> "f:" ^ b ^ "." ^ lf | None -> "f:?." ^ lf)
      in
      let inst = List.map inst_of wks in
      List.iter (fun k -> acquire t env k e.exp_loc) inst;
      let held' = List.fold_left (fun s k -> SS.add k s) env.held inst in
      List.iter
        (fun (a : expression) ->
          match a.exp_desc with
          | Texp_function _ -> walk_closure t { env with held = held' } a
          | _ -> walk t env a)
        args
    | None ->
      if is_container_op raw then List.iter (check_global_arg t env) args;
      t.events <-
        { ev_callee = callee; ev_caller = env.def; ev_held = not (SS.is_empty env.held) }
        :: t.events;
      (* A lambda passed directly to a call runs synchronously in the
         overwhelming case ([Fun.protect], [List.iter], ...) — keep the
         held set for its body.  The exceptions that genuinely defer
         execution to another context must not inherit the locks. *)
      let deferred =
        String.ends_with ~suffix:"Domain.spawn" raw
        || String.ends_with ~suffix:"Thread.create" raw
        || raw = "Stdlib.at_exit"
      in
      List.iter
        (fun (a : expression) ->
          match a.exp_desc with
          | Texp_function _ when not deferred -> walk_closure t env a
          | _ -> walk t env a)
        args)

(* Def entry: collect the parameter spine, walk the body, and classify
   the def as a lock wrapper if one of its function-typed parameters was
   invoked while a lock was held. *)

let pat_var_name (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Some (Ident.name id)
  | _ -> None

let is_fn_ty ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let walk_def t ~modname key (vb : value_binding) =
  let wrap_acc = ref SS.empty in
  let rec spine params (e : expression) =
    match e.exp_desc with
    | Texp_function { cases = [ c ]; _ } -> (
      let params =
        match pat_var_name c.c_lhs with
        | Some n when is_fn_ty c.c_lhs.pat_type -> SS.add n params
        | _ -> params
      in
      spine params c.c_rhs)
    | _ -> (params, e)
  in
  let params, body = spine SS.empty vb.vb_expr in
  let env =
    { modname; def = Some key; held = SS.empty; constructed = SS.empty; params; wrap_acc }
  in
  walk t env body;
  if not (SS.is_empty !wrap_acc) then
    let wks =
      SS.fold
        (fun k acc ->
          if String.length k > 2 && k.[0] = 'f' then
            match String.index_opt k '.' with
            | Some i -> Kfield (String.sub k (i + 1) (String.length k - i - 1)) :: acc
            | None -> acc
          else Kverbatim k :: acc)
        !wrap_acc []
    in
    t.wrappers <- SM.add key wks t.wrappers

let rec scan_bodies t ~modname (items : structure_item list) =
  List.iter
    (fun (si : structure_item) ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match pat_var_name vb.vb_pat with
            | Some n -> walk_def t ~modname (modname ^ "." ^ n) vb
            | None ->
              let env =
                {
                  modname;
                  def = None;
                  held = SS.empty;
                  constructed = SS.empty;
                  params = SS.empty;
                  wrap_acc = ref SS.empty;
                }
              in
              walk t env vb.vb_expr)
          vbs
      | Tstr_eval (e, _) ->
        let env =
          {
            modname;
            def = None;
            held = SS.empty;
            constructed = SS.empty;
            params = SS.empty;
            wrap_acc = ref SS.empty;
          }
        in
        walk t env e
      | Tstr_module mb -> scan_bodies_module t mb
      | Tstr_recmodule mbs -> List.iter (scan_bodies_module t) mbs
      | _ -> ())
    items

and scan_bodies_module t (mb : module_binding) =
  let name = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
  match mb.mb_expr.mod_desc with
  | Tmod_structure s -> scan_bodies t ~modname:name s.str_items
  | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
    scan_bodies t ~modname:name s.str_items
  | _ -> ()

(* {2 Findings} *)

(* The locked-only fixpoint: optimistically assume every def with a
   pending finding is only ever entered under the lock, then falsify —
   a def stays exempt only if it has at least one call site and every
   call site either holds a lock or sits inside another exempt def. *)
let resolve_pending t =
  let by_callee =
    List.fold_left
      (fun m ev ->
        SM.update ev.ev_callee
          (function Some l -> Some (ev :: l) | None -> Some [ ev ])
          m)
      SM.empty t.events
  in
  let all = List.fold_left (fun s (d, _) -> SS.add d s) SS.empty t.pending in
  let rec loop lo =
    let lo' =
      SS.filter
        (fun d ->
          match SM.find_opt d by_callee with
          | Some evs ->
            List.for_all
              (fun ev ->
                ev.ev_held
                || match ev.ev_caller with Some c -> SS.mem c lo | None -> false)
              evs
          | None -> false)
        lo
    in
    if SS.equal lo' lo then lo else loop lo'
  in
  let lo = loop all in
  List.filter_map (fun (d, f) -> if SS.mem d lo then None else Some f) t.pending

let order_findings t =
  let dirs =
    List.fold_left (fun s (a, b, _) -> SS.add (a ^ "|" ^ b) s) SS.empty t.edges
  in
  let best =
    List.fold_left
      (fun m (a, b, (site : Callgraph.loc)) ->
        if a < b && SS.mem (b ^ "|" ^ a) dirs then
          SM.update (a ^ "|" ^ b)
            (function
              | Some (s : Callgraph.loc)
                when (s.l_file, s.l_line, s.l_col)
                     <= (site.l_file, site.l_line, site.l_col) ->
                Some s
              | _ -> Some site)
            m
        else m)
      SM.empty t.edges
  in
  SM.fold
    (fun pair site acc ->
      let a, b =
        match String.index_opt pair '|' with
        | Some i ->
          (String.sub pair 0 i, String.sub pair (i + 1) (String.length pair - i - 1))
        | None -> (pair, pair)
      in
      mkf site
        (Printf.sprintf "lock order cycle: %s and %s are acquired in both orders"
           (show_key a) (show_key b))
      :: acc)
    best []

let findings t = t.immediate @ resolve_pending t @ order_findings t
