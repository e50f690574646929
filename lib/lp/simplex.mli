(** Bounded-variable revised simplex over equality constraints.

    Solves:  maximize c·x  subject to  A x = b,  lo ≤ x ≤ up
    where bounds may be infinite.  The implementation is a revised
    simplex over a sparse LU of the basis maintained by a product-form
    eta file ({!Basis}), with Dantzig pricing, a degenerate-streak
    Bland's-rule fallback against cycling, a two-phase start with
    artificial variables, and a bounded-variable dual simplex for warm
    starts where only the bounds changed. *)

type spec = {
  n_rows : int;
  cols : Numerics.Sparse.csc;
      (** the constraint matrix A, [n_rows] × one column per variable;
          only read *)
  rhs : float array;     (** length [n_rows] *)
  obj : float array;     (** maximize [obj·x] *)
  lo : float array;      (** lower bounds, may be [neg_infinity] *)
  up : float array;      (** upper bounds, may be [infinity] *)
}

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

type status = Basic | At_lower | At_upper | Free_nb
(** Simplex status of a structural variable at a vertex. *)

type basis = private {
  b_status : status array;
  b_rows : int array;
  b_lu : (Numerics.Sparse.csc * Numerics.Sparse_lu.t) option;
      (** the LU of the basis matrix and the constraint matrix whose
          columns [b_rows] it was factored from; [None] when the solve
          ended on eta-updated factors *)
}
(** A restartable optimal basis: per-structural-variable statuses, the
    structural variable basic in each row, and the numerical state of
    its basis matrix.  A basis from one LP can warm-start any other LP
    with the same shape (same dimensions, possibly different columns,
    rhs, bounds or objective), which is exactly the situation in FVA
    sweeps, ε-constraint scans and knockout screens.  Only {!solve}
    builds one.  The LU is never modified after it is built, so one
    basis may warm-start any number of solves, in any domain. *)

val solve : ?basis:basis -> spec -> outcome * basis option
(** Solve the LP, returning the optimal basis for reuse in a later warm
    start: [None] unless the outcome is [Optimal] with an all-structural
    basis (a vertex whose basis still contains an artificial variable is
    not transferable).  Each phase is bounded at 50 000 pivots;
    exceeding it on the cold path raises [Failure].

    The solve works in one scratch workspace per domain, sized by the
    largest LP the domain has solved, so it allocates its outcome, its
    carried basis and the LUs it factors, and nothing per pivot.  The
    outcome's [x] and the carried basis's arrays are fresh copies, so no
    caller can reach the workspace.  Raises [Invalid_argument] before any work
    when [cols] is not [n_rows] × the length of [obj], [lo] and [up], or
    [rhs] is not [n_rows] long.

    Without [basis] the solve is the cold two-phase primal simplex.
    With [basis], the carried LU is reused when every basic column of
    the new spec matches the one it was factored from (the same matrix
    physically, or entry by entry with bit-equal values) and the basis matrix is
    factored afresh otherwise; the basic values are recomputed, and the
    vertex takes one of three routes:
    - dual-feasible under the new objective — the invariant case when
      only {e bounds} changed since the basis was optimal (knockouts,
      FVA direction flips, ε-constraint levels) — bounded-variable dual
      simplex iterations restore primal feasibility;
    - primal-feasible (but not dual) — warm phase 2, phase 1 skipped;
    - neither — the basis is rejected and the solve runs cold.

    A basis of the wrong shape or with a singular matrix is rejected
    too, as is a warm run that exhausts the pivot budget; every reject
    falls back to the cold path, so the outcome is the same either way
    and only the pivot count changes.  Whether the LU was reused or
    rebuilt never changes a bit: [Sparse_lu.factor] is a deterministic
    function of the column bits, and the final polish factors the
    terminal basis afresh unless its factors already are that fresh
    LU.  A dual ray re-derived on fresh factors with a clear bound
    violation certifies [Infeasible] directly; one inside tolerance
    noise is confirmed on the cold path ([simplex.dual_fallbacks]).  [simplex.warm_starts] /
    [simplex.warm_rejects] record which path ran, with per-reason reject
    counters ([simplex.warm_rejects_shape] / [_singular] /
    [_dual_infeasible] / [_limit]) for cache-efficacy diagnosis;
    [simplex.factor_reuses] counts warm starts that took the carried LU
    plus polishes that kept a fresh one. *)
