(** Minimal JSON, just enough for the observability formats.

    The trace and metrics files written by {!Span} and {!Metrics} must be
    readable back (the [trace-summary] subcommand, the [@trace-check]
    schema test) without adding a JSON dependency, so this module carries
    a small recursive-descent parser and a printer for the subset the
    library emits: objects, arrays, strings (with [\uXXXX] escapes),
    finite floats, ints, booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** key order preserved *)

exception Parse_error of string
(** Carries a human-readable message with the byte offset. *)

val parse : string -> t
(** Parse a complete JSON document.  Raises {!Parse_error} on malformed
    input, trailing garbage, [NaN]/[Infinity] literals, a number whose
    value overflows a double (such as [1e999]), or nesting deeper than
    512 levels (guarding against [Stack_overflow] on corrupt input). *)

val to_buffer : Buffer.t -> t -> unit
(** Compact (single-line) serialization.  Non-finite floats are emitted
    as [null] — JSON has no encoding for them. *)

val to_string : t -> string

val member : string -> t -> t option
(** [member k j] is the value under key [k] when [j] is an object. *)

val number : t -> float option
(** [Int] or [Float] payload as a float. *)
