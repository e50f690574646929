(** Sparse LU factorization of a square matrix given as sparse columns.

    Left-looking Gilbert–Peierls elimination with threshold-Markowitz
    pivoting: pivots are chosen among entries within a fixed threshold
    of the column maximum, preferring rows with fewer original nonzeros
    (stability first, then sparsity), with all ties broken by index so
    the factorization is a deterministic function of its input.  Columns
    are eliminated in increasing-nnz order, which keeps fill-in near
    zero on the basis matrices of stoichiometric LPs.

    This is the factorization behind {!Lp.Basis} (revised simplex); it
    is generic numerics and usable anywhere a sparse square solve is
    needed. *)

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

val nnz : t -> int
(** Stored nonzeros of [L] and [U] (diagonals excluded) — the fill-in
    measure the eta-file refactorization trigger compares against. *)
