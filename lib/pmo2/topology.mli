(** Archipelago communication topologies.

    Edges are directed: [(src, dst)] means island [src] offers emigrants to
    island [dst] at every migration epoch. *)

type t =
  | All_to_all  (** the paper's broadcast scheme *)
  | Ring        (** i → (i+1) mod n *)
  | Star        (** hub 0 ↔ every other island *)
  | Custom of (int * int) list

val edges : t -> n:int -> (int * int) list
(** Concrete directed edge list for [n] islands. Custom edges are
    validated against [n]. *)
