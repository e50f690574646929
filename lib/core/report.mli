(** Human-readable reports for {!Design.outcome}.

    The formatting is problem-aware when given objective labels and
    un-negation flags (this library minimizes everything internally, so
    maximized quantities are stored negated). *)

type objective = {
  label : string;
  maximized : bool;  (** true = stored negated, report un-negated *)
}

val render :
  objectives:objective array ->
  Design.outcome ->
  string
(** Multi-line text report: front summary, mined trade-offs with yields,
    the most robust design, evaluation count. *)
