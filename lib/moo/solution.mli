(** An evaluated candidate: decision vector, objective vector, violation. *)

type t = {
  x : float array;  (** decision variables *)
  f : float array;  (** objective values (minimized) *)
  v : float;        (** constraint violation, [0.] = feasible *)
}

val evaluate : Problem.t -> float array -> t
(** Evaluate a decision vector (clipping it into the box first). *)

val equal_objectives : ?tol:float -> t -> t -> bool
(** Componentwise objective equality within [tol] (default 1e-12). *)
