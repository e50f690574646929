(** Factorized simplex basis: sparse Markowitz LU maintained across
    pivots by a product-form eta file.

    The caller factors the basis columns and hands the LU over with
    {!create} or {!reset}; after each pivot it records the basis change
    with {!update} instead of refactorizing.  {!ftran_into} and
    {!btran_into} then solve [B x = b] and [Bᵀ y = c] through the base
    factors and the eta file, in the caller's vectors; both walk fixed,
    deterministically ordered entry arrays, so the solves are bit-for-bit
    deterministic functions of the basis history.

    Each update appends one eta (the column [w = B⁻¹a] the ratio test
    already computed) that every later solve applies on both legs, so
    solves get gradually more expensive; {!should_refactor} triggers
    when the eta nonzeros rival the base factors or after ~2√m updates.
    The caller — who owns the current basis columns — answers with a
    fresh LU and {!reset}.  The eta file lives in flat buffers that only
    grow, so a [t] kept across solves stops allocating once it has seen
    its longest eta file.  Telemetry: gauge [simplex.eta_len] (updates
    since refactorization). *)

type t

val create : Numerics.Sparse_lu.t -> t
(** A basis around a factorization of its columns, with an empty eta
    file.  The LU is only read, never modified, so it may be shared
    with other bases. *)

val reset : t -> Numerics.Sparse_lu.t -> unit
(** Replace the factorization (of any order) and clear the eta file. *)

val fresh_lu : t -> Numerics.Sparse_lu.t option
(** The base factorization while the eta file is empty — when every
    basis change goes through {!update}, that is the plain LU of the
    current basis columns — and [None] once an update has been
    recorded. *)

val update : t -> row:int -> float array -> unit
(** [update b ~row w] records the basis change that made a column [a]
    basic at position [row].  [w] must be the [B⁻¹ a] vector of the
    {e current} basis (the ratio-test direction) in its first [m]
    entries. *)

val ftran_into : t -> float array -> float array -> unit
(** [ftran_into b rhs x] solves [B x = rhs] ([rhs] indexed by row, [x]
    by basis position) into the first [m] entries of [x], overwriting
    [rhs]; see {!Numerics.Sparse_lu.solve_into}. *)

val btran_into : t -> float array -> float array -> unit
(** [btran_into b c y] solves [Bᵀ y = c] ([c] indexed by basis
    position, [y] by row — the simplex multipliers) into [y],
    overwriting [c]. *)

val should_refactor : t -> bool
(** True once the eta file is long or dense enough that refactorizing
    is cheaper than carrying it further. *)
