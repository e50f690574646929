(** Sparse LU factorization of a square matrix given as sparse columns.

    Left-looking Gilbert–Peierls elimination with threshold-Markowitz
    pivoting: pivots are chosen among entries within a fixed threshold
    of the column maximum, preferring rows with fewer original nonzeros
    (stability first, then sparsity), with all ties broken by index so
    the factorization is a deterministic function of its input.  Columns
    are eliminated in increasing-nnz order, which keeps fill-in near
    zero on the basis matrices of stoichiometric LPs.

    L and U are stored as compressed columns in flat index/value
    arrays, and a [t] is never modified after {!factor} returns, so one
    factorization can be shared by any number of solves, bases and
    domains.  {!solve_into} and {!solve_t_into} allocate nothing: they
    work in the caller's vectors.

    This is the factorization behind {!Lp.Basis} (revised simplex) and
    the flux projector of [Fba.Network]; it is generic numerics and
    usable anywhere a sparse square solve is needed. *)

type t

exception Singular
(** No admissible pivot above the magnitude tolerance — the matrix is
    (numerically) rank-deficient. *)

val factor : Sparse.csc -> t
(** [factor a] factors the square matrix [a].  Raises {!Singular} on
    rank deficiency, [Invalid_argument] on an empty or non-square
    matrix. *)

val solve_into : t -> float array -> float array -> unit
(** [solve_into f b x] writes the solution of [A x = b] into the first
    [dim f] entries of [x], using [b] as its working vector: [b] comes
    back overwritten.  [b] is indexed by row, [x] by column.  For a
    basis matrix this is the simplex {e ftran}.  Raises
    [Invalid_argument] when either vector is shorter than [dim f] or
    both are the same array. *)

val solve_t_into : t -> float array -> float array -> unit
(** [solve_t_into f c y] writes the solution of [Aᵀ y = c] ([c] indexed
    by column, [y] by row) into [y], overwriting [c] the same way.  For
    a basis matrix this is the simplex {e btran}. *)

val dim : t -> int
(** Order of the factored matrix. *)

val nnz : t -> int
(** Stored nonzeros of [L] and [U], counting [U]'s diagonal but not
    [L]'s implied unit one — the fill-in measure the eta-file
    refactorization trigger compares against. *)
