(** Flux-control ranking of the 23 enzymes at the natural operating point
    — the quantitative form of the paper's Section 3.1 finding that
    Rubisco, SBPase, ADPGPP and FBP aldolase are the most influential
    enzymes of the carbon-metabolism model. *)

val print : unit -> unit
(** Prints the ranking, most influential first. *)
