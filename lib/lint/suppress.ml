(* A suppression is a comment of the form

     (* robustlint: allow R<k> — why the rule is safe to break here *)

   on the offending line or the line directly above it.  The text after
   the rule id is the justification; it is mandatory — an allow without a
   justification does not suppress (the driver reports it instead).

   [verdict] also records which comment lines actually matched a
   finding; [stale] subtracts that set from the allow comments of the
   linted sources to flag suppressions whose finding no longer fires —
   a stale allow is a license to reintroduce the bug silently. *)

type verdict = Active | Suppressed | Missing_justification

let marker = "robustlint: allow R"

(* The first marker on [line], with its rule and the offset just past
   the rule id.  A marker with an unknown id suppresses nothing. *)
let first_marker line =
  let rec find from =
    match String.index_from_opt line from 'r' with
    | None -> None
    | Some i ->
      let n = String.length marker in
      if i + n <= String.length line && String.sub line i n = marker then Some (i + n)
      else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some digit_at ->
    let len = String.length line in
    let stop = ref digit_at in
    while !stop < len && line.[!stop] >= '0' && line.[!stop] <= '9' do
      incr stop
    done;
    Finding.rule_of_id ("R" ^ String.sub line digit_at (!stop - digit_at))
    |> Option.map (fun rule -> (rule, !stop))

let rule_on_line line = Option.map (fun (rule, _) -> Finding.rule_id rule) (first_marker line)

(* Parse [line] for a suppression of [rule].  [None] when the line carries
   no marker for that rule; [Some justified] otherwise. *)
let parse_line line rule =
  match first_marker line with
  | Some (r, stop) when r = rule ->
    (* Justification: what remains once the comment closer and leading
       separators (dash, em-dash, colon) are stripped. *)
    let rest = String.sub line stop (String.length line - stop) in
    let rest =
      match String.index_opt rest '*' with
      | Some j when j + 1 < String.length rest && rest.[j + 1] = ')' -> String.sub rest 0 j
      | _ -> rest
    in
    Some
      (String.exists
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
         rest)
  | _ -> None

type t = {
  source_root : string;
  mutable files : (string * string array option) list; (* path -> lines, once read *)
  mutable used : (string * int) list; (* comment (file, line) pairs that matched *)
}

let create ~source_root = { source_root; files = []; used = [] }

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let acc = ref [] in
        (try
           while true do
             acc := input_line ic :: !acc
           done
         with End_of_file -> ());
        Some (Array.of_list (List.rev !acc)))

let lines t file =
  match List.assoc_opt file t.files with
  | Some v -> v
  | None ->
    let v = read_lines (Filename.concat t.source_root file) in
    t.files <- (file, v) :: t.files;
    v

let verdict t ~file ~line rule =
  match lines t file with
  | None -> Active
  | Some ls ->
    let at i =
      if i >= 1 && i <= Array.length ls then parse_line ls.(i - 1) rule else None
    in
    let combined =
      match at line with
      | Some j -> Some (line, j)
      | None -> ( match at (line - 1) with Some j -> Some (line - 1, j) | None -> None)
    in
    (match combined with
    | None -> Active
    | Some (cline, j) ->
      if not (List.mem (file, cline) t.used) then t.used <- (file, cline) :: t.used;
      if j then Suppressed else Missing_justification)

let stale t files =
  List.sort_uniq String.compare files
  |> List.concat_map (fun file ->
         match lines t file with
         | None -> []
         | Some ls ->
           List.concat
             (List.mapi
                (fun i text ->
                  match rule_on_line text with
                  | Some id when not (List.mem (file, i + 1) t.used) -> [ (file, i + 1, id) ]
                  | _ -> [])
                (Array.to_list ls)))
