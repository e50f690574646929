(** Factorized simplex basis: sparse Markowitz LU maintained across
    pivots by a product-form eta file.

    {!factor} builds the LU of the basis columns; after each pivot the
    caller records the basis change with {!update} instead of
    refactorizing.  {!ftran} and {!btran} then solve [B x = b] and
    [Bᵀ y = c] through the base factors and the eta file; both walk
    fixed, deterministically ordered entry arrays, so the solves are
    bit-for-bit deterministic functions of the basis history.

    Each update appends one eta (the column [w = B⁻¹a] the ratio test
    already computed) that every later solve applies on both legs, so
    solves get gradually more expensive; {!should_refactor} triggers
    when the eta nonzeros rival the base factors or after ~2√m updates.
    The caller — who owns the current basis columns — answers with
    {!refactor}.  Telemetry: gauge [simplex.eta_len] (updates since
    refactorization). *)

type t

val factor : (int * float) list array -> t
(** Factor basis columns (index = basis position, entries = sparse
    [(row, value)]).  Raises {!Numerics.Sparse_lu.Singular} on a
    rank-deficient basis. *)

val of_lu : Numerics.Sparse_lu.t -> t
(** A basis around an existing factorization of its columns, with an
    empty eta file.  The LU is only read, never modified, so it may be
    shared with other bases. *)

val fresh_lu : t -> Numerics.Sparse_lu.t option
(** The base factorization while the eta file is empty — when every
    basis change goes through {!update}, that is the plain LU of the
    current basis columns — and [None] once an update has been
    recorded. *)

val refactor : t -> (int * float) list array -> unit
(** Replace the factorization with a fresh LU of the given columns and
    clear the eta file. *)

val update : t -> row:int -> float array -> unit
(** [update b ~row w] records the basis change that made a column [a]
    basic at position [row].  [w] must be the full [B⁻¹ a] vector of the
    {e current} basis (the ratio-test direction). *)

val ftran : t -> float array -> float array
(** Solve [B x = rhs] (dense right-hand side, indexed by row); the
    result is indexed by basis position. *)

val ftran_col : t -> (int * float) list -> float array
(** {!ftran} of a sparse column — the pricing-column extraction path. *)

val btran : t -> float array -> float array
(** Solve [Bᵀ y = c] ([c] indexed by basis position); the result is
    indexed by row — the simplex multipliers. *)

val should_refactor : t -> bool
(** True once the eta file is long or dense enough that refactorizing
    is cheaper than carrying it further. *)
