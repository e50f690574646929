(* Static analysis gate for the robustpath tree.

     robustlint [DIR...]     # default: lib bin

   Reads the .cmt files dune produces under each DIR (dune build @check),
   runs every rule, applies the allow comments and, in the same pass,
   reports the allow comments that silenced nothing.  For R12 it also
   reads every other .cmt under the build root except test/, for
   references only.  Run it from the build context root (the @lint
   alias does) so compiled locations resolve.  A .cmt older than its
   source stops the run.  Exit status: 0 clean, 1 on any finding or
   stale allow comment, 2 on a usage error or a stale .cmt. *)

let usage_error msg =
  Printf.eprintf "robustlint: %s\nusage: robustlint [DIR...]\n" msg;
  exit 2

let () =
  let dirs = match List.tl (Array.to_list Sys.argv) with [] -> [ "lib"; "bin" ] | ds -> ds in
  List.iter
    (fun d -> if String.starts_with ~prefix:"-" d then usage_error ("unknown option " ^ d))
    dirs;
  (match List.filter (fun d -> not (Sys.file_exists d)) dirs with
  | [] -> ()
  | missing -> usage_error ("no such directory: " ^ String.concat ", " missing));
  let r =
    try Lint.Driver.run ~source_root:"." dirs
    with Invalid_argument msg ->
      Printf.eprintf "robustlint: %s\n" msg;
      exit 2
  in
  if r.units = 0 then
    usage_error
      (Printf.sprintf
         "no .cmt files under %s — build first (dune build @check) and run from the build \
          context root"
         (String.concat " " dirs));
  Lint.Driver.print_text Format.std_formatter r;
  if r.findings <> [] || r.stale <> [] then exit 1
