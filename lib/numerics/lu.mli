(** LU factorization with partial pivoting, [P·A = L·U], on
    caller-owned buffers without allocating (the dense Newton steps of
    {!Ode} reuse one buffer per call). *)

exception Singular
(** Raised when the matrix is numerically singular (zero pivot). *)

val factor_in_place : n:int -> float array -> int array -> unit
(** [factor_in_place ~n a perm] overwrites the row-major n×n matrix [a]
    with its unit-lower and upper factors and [perm] with the row
    permutation.  Raises {!Singular} if a pivot underflows, leaving [a]
    partly overwritten. *)

val solve_in_place : n:int -> float array -> int array -> Vec.t -> Vec.t -> unit
(** [solve_in_place ~n lu perm b x] writes the solution of [A x = b]
    into [x], from the output of {!factor_in_place}.  [x] and [b] must
    be distinct vectors. *)
