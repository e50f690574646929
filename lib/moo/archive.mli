(** A non-dominated archive of solutions.

    The archive keeps only mutually non-dominated solutions (under
    constrained domination), unbounded. *)

type t

val create : unit -> t

val size : t -> int
val to_list : t -> Solution.t list

val add : t -> Solution.t -> bool
(** [add a s] inserts [s] if no archived solution dominates it, removing
    any members it dominates; returns [true] if [s] was inserted.
    Duplicates in objective space are rejected. *)

val add_all : t -> Solution.t list -> unit

val restore : t -> Solution.t list -> unit
(** [restore a sols] replaces the members wholesale, preserving list order
    (checkpoint restore).  The list is trusted to be mutually
    non-dominated — no dominance filtering is applied. *)
