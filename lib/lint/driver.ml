(* Walk directories for the .cmt files dune leaves under [.*.objs/byte],
   run every pass over the implementations, apply suppression comments
   from the corresponding sources, then audit those same sources for
   allow comments that silenced nothing.

   Pass order matters: the per-occurrence rules and the two
   whole-program scans (call graph, lock discipline) all read the same
   typed trees, so each cmt is read once and the structures shared.
   Suppression is consulted twice — once to filter the per-occurrence
   findings (and decide which nondeterminism sources are [Active] and
   may taint their callers), then again over the interprocedural
   findings, which carry their own locations and their own allow
   comments.  Only then is the set of consulted comments complete, so
   the stale audit runs last, over each unit's [cmt_sourcefile]. *)

type report = {
  findings : Finding.t list;
  suppressed : int;
  units : int;
  stale : (string * int * string) list;
}

let rec collect ~skip acc path =
  if path = skip then acc
  else
    match Sys.is_directory path with
    | exception Sys_error _ -> acc
    | true ->
      Array.fold_left
        (fun acc entry -> collect ~skip acc (Filename.concat path entry))
        acc (Sys.readdir path)
    | false ->
      if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti" then
        path :: acc
      else acc

let read path =
  match Cmt_format.read_cmt path with
  | exception (Sys_error _ | End_of_file | Failure _ | Cmi_format.Error _) ->
    (* Not a readable cmt for this compiler — stale artifact or foreign
       file; nothing to check. *)
    None
  | cmt -> Some cmt

let read_unit path =
  match read path with
  | Some { cmt_annots = Cmt_format.Implementation str; cmt_modname; cmt_sourcefile; _ } ->
    Some (Callgraph.normalize cmt_modname, cmt_sourcefile, str)
  | _ -> None

let read_interface path =
  match read path with
  | Some { cmt_annots = Cmt_format.Interface sg; cmt_modname; cmt_sourcefile; _ } ->
    Some (cmt_modname, cmt_sourcefile, sg)
  | _ -> None

(* R12's referrers beyond the linted units: every other compiled unit
   under [source_root] except test/, read for references only. *)
let referrers ~source_root linted =
  let strip p =
    if String.starts_with ~prefix:"./" p then String.sub p 2 (String.length p - 2) else p
  in
  let linted = List.map strip linted in
  collect ~skip:(Filename.concat source_root "test") [] source_root
  |> List.filter (fun p ->
         Filename.check_suffix p ".cmt" && not (List.mem (strip p) linted))
  |> List.sort String.compare

let dedupe findings =
  let rec go = function
    | (a : Finding.t) :: b :: rest ->
      if a.rule = b.rule && a.file = b.file && a.line = b.line && a.col = b.col
         && a.message = b.message
      then go (a :: rest)
      else a :: go (b :: rest)
    | l -> l
  in
  go (List.sort Finding.compare_by_loc findings)

let run ?(force_lib = false) ~source_root dirs =
  let files = List.sort String.compare (List.fold_left (collect ~skip:"") [] dirs) in
  let cmts = List.filter (fun p -> Filename.check_suffix p ".cmt") files in
  let units = List.filter_map read_unit cmts in
  let interfaces =
    List.filter_map read_interface (List.filter (fun p -> Filename.check_suffix p ".cmti") files)
  in
  let rules = Rules.create ~force_lib () in
  let cg = Callgraph.create () in
  let locks = Locks.create () in
  List.iter
    (fun (modname, _, (str : Typedtree.structure)) ->
      Rules.check_structure rules str;
      Callgraph.scan cg ~modname str;
      Locks.scan_types locks ~modname str.str_items)
    units;
  List.iter (fun (modname, _, sg) -> Rules.check_interface rules ~modname sg) interfaces;
  if Rules.has_exports rules then begin
    List.iter (fun (_, _, str) -> Rules.scan_references rules str) units;
    List.iter
      (fun path ->
        Option.iter (fun (_, _, str) -> Rules.scan_references rules str) (read_unit path))
      (referrers ~source_root cmts)
  end;
  List.iter
    (fun (modname, _, (str : Typedtree.structure)) ->
      Locks.scan_bodies locks ~modname str.str_items)
    units;
  let sup = Suppress.create ~source_root in
  let suppressed = ref 0 in
  let apply_suppressions fs =
    List.filter_map
      (fun (f : Finding.t) ->
        match Suppress.verdict sup ~file:f.file ~line:f.line f.rule with
        | Suppress.Suppressed ->
          incr suppressed;
          None
        | Suppress.Active -> Some f
        | Suppress.Missing_justification ->
          Some
            {
              f with
              message = f.message ^ " — suppression comment present but lacks a justification";
            })
      fs
  in
  let occurrence = apply_suppressions (Rules.findings rules) in
  (* A justified suppression on a source asserts the nondeterminism is
     contained; only unsuppressed sources taint their callers. *)
  let is_active rule (loc : Callgraph.loc) =
    Suppress.verdict sup ~file:loc.l_file ~line:loc.l_line rule <> Suppress.Suppressed
  in
  let interproc =
    apply_suppressions (Taint.findings cg ~is_active @ Locks.findings locks)
  in
  {
    findings = dedupe (occurrence @ interproc);
    suppressed = !suppressed;
    units = List.length units;
    stale =
      Suppress.stale sup
        (List.filter_map (fun (_, src, _) -> src) units
        @ List.filter_map (fun (_, src, _) -> src) interfaces);
  }

let plural n = if n = 1 then "" else "s"

let print_text ppf r =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) r.findings;
  List.iter
    (fun (file, line, id) ->
      Format.fprintf ppf "%s:%d: stale suppression: [%s] no longer fires here — delete it@."
        file line id)
    r.stale;
  let nf = List.length r.findings and ns = List.length r.stale in
  Format.fprintf ppf
    "robustlint: %d finding%s and %d stale suppression%s over %d unit%s (%d suppressed)@." nf
    (plural nf) ns (plural ns) r.units (plural r.units) r.suppressed
