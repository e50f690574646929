(** The one table of the paper's experiments: [robustpath experiment]
    dispatches on it, [robustpath list] prints its names, and the bench
    harness appends its own entries to it. *)

val all : (string * (unit -> unit)) list
(** Each experiment's name and the function that prints it, in the
    paper's order followed by the ablations. *)
