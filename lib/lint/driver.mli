(** Linter driver: find .cmt files, run the per-occurrence rules and the
    whole-program passes (interprocedural taint, lock discipline), apply
    suppressions, audit the allow comments, report. *)

type report = {
  findings : Finding.t list;  (** unsuppressed, sorted by location *)
  suppressed : int;           (** findings silenced by justified allow comments *)
  units : int;                (** implementation units checked *)
  stale : (string * int * string) list;
      (** [(file, line, rule id)] of the allow comments in the checked
          units' sources that silenced nothing, sorted *)
}

val run : ?force_lib:bool -> source_root:string -> string list -> report
(** [run ~source_root dirs] recursively collects every [.cmt] under each
    of [dirs], checks all implementations, and resolves suppression
    comments by reading sources relative to [source_root] (compiled
    locations are build-root-relative, so from a dune rule running in
    [_build/default] that is ["."]).  [force_lib] applies the
    library-only rules everywhere (fixture testing). *)

val print_text : Format.formatter -> report -> unit
(** The findings, then the stale allow comments, then a one-line
    summary. *)
