(** A non-dominated archive of solutions.

    The archive keeps only mutually non-dominated solutions (under
    constrained domination), unbounded. *)

type t

val create : unit -> t

val size : t -> int
val to_list : t -> Solution.t list

val add_all : t -> Solution.t list -> unit
(** Insert each solution in order if no archived solution dominates it,
    removing any members it dominates.  Duplicates in objective space are
    rejected. *)

val restore : t -> Solution.t list -> unit
(** [restore a sols] replaces the members wholesale, preserving list order
    (checkpoint restore).  The list is trusted to be mutually
    non-dominated — no dominance filtering is applied. *)
