type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "%s at byte %d" msg pos))) fmt

(* {1 Printer} *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then
      (* %.17g round-trips every float; trim the common integral case. *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | String s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* {1 Parser} *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> c.pos <- c.pos + 1
  | Some got -> fail c.pos "expected %c, found %c" ch got
  | None -> fail c.pos "expected %c, found end of input" ch

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos "invalid literal"

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.src then fail c.pos "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if c.pos >= String.length c.src then fail c.pos "unterminated escape";
       let e = c.src.[c.pos] in
       c.pos <- c.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if c.pos + 4 > String.length c.src then fail c.pos "truncated \\u escape";
         let hex = String.sub c.src c.pos 4 in
         c.pos <- c.pos + 4;
         let code =
           match int_of_string_opt ("0x" ^ hex) with
           | Some v -> v
           | None -> fail c.pos "bad \\u escape %S" hex
         in
         (* Encode the code point as UTF-8 (surrogates pass through as-is,
            which is enough for the ASCII-only formats we emit). *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | e -> fail c.pos "invalid escape \\%c" e);
      loop ()
    | ch -> Buffer.add_char buf ch; loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let number_char ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  while c.pos < String.length c.src && number_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  (* A literal too large for a double (1e999) would read as infinity,
     which JSON cannot carry: refuse it like the Infinity token. *)
  let float_literal () =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Float f
    | Some _ -> fail start "number %S out of range" s
    | None -> fail start "bad number %S" s
  in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then float_literal ()
  else match int_of_string_opt s with Some i -> Int i | None -> float_literal ()

(* Recursive descent consumes native stack per nesting level; cap the
   depth so hostile/corrupt input fails with [Parse_error] rather than
   [Stack_overflow]. *)
let max_depth = 512

let rec parse_value depth c =
  if depth > max_depth then fail c.pos "nesting deeper than %d" max_depth;
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some '{' ->
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then (c.pos <- c.pos + 1; Obj [])
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value (depth + 1) c in
        skip_ws c;
        match peek c with
        | Some ',' -> c.pos <- c.pos + 1; members ((k, v) :: acc)
        | Some '}' -> c.pos <- c.pos + 1; Obj (List.rev ((k, v) :: acc))
        | _ -> fail c.pos "expected , or } in object"
      in
      members []
    end
  | Some '[' ->
    expect c '[';
    skip_ws c;
    if peek c = Some ']' then (c.pos <- c.pos + 1; List [])
    else begin
      let rec items acc =
        let v = parse_value (depth + 1) c in
        skip_ws c;
        match peek c with
        | Some ',' -> c.pos <- c.pos + 1; items (v :: acc)
        | Some ']' -> c.pos <- c.pos + 1; List (List.rev (v :: acc))
        | _ -> fail c.pos "expected , or ] in array"
      in
      items []
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c.pos "unexpected character %c" ch

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value 0 c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let number = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
