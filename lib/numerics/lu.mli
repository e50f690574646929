(** LU factorization with partial pivoting.

    One kernel, two entry points: {!factor}/{!solve} allocate their
    result, while {!factor_in_place}/{!solve_in_place} run the same
    pivoting and arithmetic on caller-owned buffers without allocating
    (the dense Newton steps of {!Ode} reuse one buffer per call). *)

type t
(** A factorization [P·A = L·U] of a square matrix. *)

exception Singular
(** Raised when the matrix is numerically singular (zero pivot). *)

val factor : Matrix.t -> t
(** Factor a square matrix. Raises {!Singular} if a pivot underflows. *)

val solve : t -> Vec.t -> Vec.t
(** [solve lu b] solves [A x = b]. *)

val factor_in_place : n:int -> float array -> int array -> unit
(** [factor_in_place ~n a perm] overwrites the row-major n×n matrix [a]
    with its unit-lower and upper factors and [perm] with the row
    permutation.  Raises {!Singular} if a pivot underflows, leaving [a]
    partly overwritten. *)

val solve_in_place : n:int -> float array -> int array -> Vec.t -> Vec.t -> unit
(** [solve_in_place ~n lu perm b x] writes the solution of [A x = b]
    into [x], from the output of {!factor_in_place}.  [x] and [b] must
    be distinct vectors. *)
