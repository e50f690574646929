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
    domains.  Neither solve allocates beyond its result and one work
    vector.

    This is the factorization behind {!Lp.Basis} (revised simplex) and
    the flux projector of [Fba.Network]; it is generic numerics and
    usable anywhere a sparse square solve is needed. *)

type t

exception Singular
(** No admissible pivot above the magnitude tolerance — the matrix is
    (numerically) rank-deficient. *)

val factor : (int * float) list array -> t
(** [factor cols] factors the square matrix whose [k]-th column is the
    sparse [(row, value)] list [cols.(k)].  Raises {!Singular} on
    rank deficiency, [Invalid_argument] on an empty matrix or a row
    index out of range. *)

val solve : t -> float array -> float array
(** [solve f b] solves [A x = b]; [b] is indexed by row, the result by
    column.  For a basis matrix this is the simplex {e ftran}. *)

val solve_t : t -> float array -> float array
(** [solve_t f c] solves [Aᵀ y = c]; [c] is indexed by column, the
    result by row.  For a basis matrix this is the simplex {e btran}. *)

val dim : t -> int
(** Order of the factored matrix. *)

val nnz : t -> int
(** Stored nonzeros of [L] and [U], counting [U]'s diagonal but not
    [L]'s implied unit one — the fill-in measure the eta-file
    refactorization trigger compares against. *)
