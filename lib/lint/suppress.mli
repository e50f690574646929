(** Suppression comments.

    [(* robustlint: allow R<k> — justification *)] on the offending line
    or the line directly above silences rule [R<k>] at that location.
    The justification text is mandatory: an [allow] without one does not
    suppress — the driver reports it as a finding in its own right, so
    every suppression in the tree documents {e why} the rule is safe to
    break there. *)

type verdict =
  | Active                 (** no suppression: report the finding *)
  | Suppressed             (** justified allow comment found *)
  | Missing_justification  (** allow comment found, but no reason given *)

type t

val create : source_root:string -> t
(** Reads source files lazily, resolving the relative paths recorded in
    compiled artifacts against [source_root]. *)

val verdict : t -> file:string -> line:int -> Finding.rule -> verdict
(** Unreadable files yield [Active] (never silently suppress). *)

val stale : t -> string list -> (string * int * string) list
(** [stale t files] is the [(file, line, rule id)] of every allow comment
    in [files] that no {!verdict} so far has consulted: it silences
    nothing.  Sorted by file, then line. *)

(* robustlint: allow R12 — test_lint's "comment parsing" case checks the parser *)
val parse_line : string -> Finding.rule -> bool option
(** [parse_line line rule] is [None] when [line] has no allow comment for
    [rule], [Some justified] otherwise. *)

(* robustlint: allow R12 — test_lint's "rule_on_line" case checks the stale audit's reader *)
val rule_on_line : string -> string option
(** The rule id of the first allow comment on a source line, if it names
    a real rule. *)
