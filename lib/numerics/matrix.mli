(** Dense row-major matrices of floats: the Jacobians {!Ode.numeric_jacobian}
    returns. *)

type t

val init : int -> int -> (int -> int -> float) -> t
(** [init r c f] is the [r]×[c] matrix with entry [(i, j) = f i j]. *)

val get : t -> int -> int -> float
(** Raises [Invalid_argument] outside the matrix. *)
