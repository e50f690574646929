(** Initial-value problems and steady states.

    - {!dopri5}: adaptive embedded Dormand–Prince 5(4), the one
      integrator;
    - {!pseudo_transient}: pseudo-transient continuation toward a root
      f(y) = 0, over a forward-difference Jacobian with a structural
      sparsity {!pattern}, returning only roots whose Jacobian is
      stable ({!Eigen}).

    A right-hand side is an in-place function: [f t y dy] reads [y] and
    writes dy/dt at [(t, y)] into [dy].  It must overwrite every entry
    of [dy], must not write to [y], and must not keep a reference to
    either: both are scratch vectors owned by the solver and rewritten
    by its next stage.  The solvers call [f] one call at a time and never
    from inside itself, so a closure may own scratch buffers of its own
    (the leaf model's does); such a closure is not re-entrant and must
    not be shared between domains. *)

type rhs = float -> Vec.t -> Vec.t -> unit

type stats = {
  steps : int;       (** accepted steps *)
  rejected : int;    (** rejected attempts *)
  evals : int;       (** rhs evaluations; for {!dopri5},
                         6 · (steps + rejected) + 1 *)
}

type result = { t : float; y : Vec.t; stats : stats }

exception Step_underflow of float
(** Raised by {!dopri5} when its step falls below the 1e-14 floor or is
    NaN, or when it exhausts its step budget; carries the time at which
    it happened. *)

exception Deadline of float
(** Raised by {!dopri5} and {!pseudo_transient} when a [?deadline] (an
    {!Obs.Clock.now_ns} timestamp) has passed; carries the simulation
    time reached.  Cooperative: checked once per attempted step, so an
    integration is abandoned promptly but never mid-step.  Only raised
    when a deadline was requested — deadline-free integrations remain
    wall-clock independent and therefore deterministic. *)

val dopri5 :
  ?rtol:float ->
  ?atol:float ->
  ?deadline:int ->
  f:rhs ->
  t0:float ->
  t1:float ->
  y0:Vec.t ->
  unit ->
  result
(** Adaptive Dormand–Prince 5(4) from [t0] to [t1].
    Defaults: [rtol = 1e-6], [atol = 1e-9].
    The first step is 1/100 of the span, and steps stay within
    [1e-14, t1 − t0].  Raises {!Step_underflow} when a step would fall
    below that floor or is NaN (a NaN error estimate leaves one), or
    after 1 000 000 attempted steps.  [deadline] is an absolute
    {!Obs.Clock.now_ns} timestamp past which {!Deadline} is raised.

    Allocation-free per step: the stage vectors and state buffers are
    allocated once per call.  First-same-as-last: an accepted step's
    seventh stage is the next step's first, so each attempted step costs
    six rhs evaluations, plus one per call.  The returned [y] is a buffer
    no later step writes.  One [ode.integrate] span and one
    [ode.integrations] count per call; the [ode.steps], [ode.rejected]
    and [ode.rhs_evals] counters are added once per call, on every
    exit. *)

type pattern
(** The structural sparsity of an rhs's Jacobian — which derivatives each
    state can change — with its columns grouped so that no two columns of
    a group share a row (Curtis–Powell–Reid).  A forward-difference
    Jacobian then perturbs a whole group per rhs call.  The pattern also
    holds its diagonal blocks: the strongly connected components of the
    graph j → i, under whose symmetric permutation the Jacobian is block
    triangular, so that its spectrum is the union of the blocks'. *)

val pattern : int array array -> pattern
(** [pattern rows]: [rows.(j)] lists the derivatives [i] that state [j]
    can change.  It must contain every [i] whose fᵢ reads yⱼ; extra rows
    only cost groups, and may merge blocks.  Columns are grouped greedily
    in index order: each joins the first group that shares no row with
    it.  The blocks are the strongly connected components of j → i
    (i ∈ [rows.(j)]), found from the graph's transitive closure in
    O(n³), and are laid out in the order of their least state by a
    sequence of row swaps fixed here.  Build it once per system: the
    leaf model's has blocks of 19, 4 and 1 states; a dense pattern has
    one.  Raises [Invalid_argument] on a row outside [0, n). *)

(* robustlint: allow R12 — test_photo's "jacobian pattern shape" case counts the leaf's groups *)
val pattern_groups : pattern -> int
(** Number of column groups: the rhs calls one Jacobian costs. *)

val numeric_jacobian : pattern:pattern -> rhs -> float -> Vec.t -> Matrix.t
(** Forward-difference Jacobian of the rhs at [(t, y)]; one rhs
    evaluation plus one per column group of [pattern].  An entry outside
    the pattern is +0.; inside, every column's step is 1e-7·max(1, |yⱼ|),
    and the entry is bit for bit the dense quotient, because fᵢ reads no
    other column of its group.  The same kernel fills
    {!pseudo_transient}'s Jacobians in place.  Raises
    [Invalid_argument] when the pattern's size is not [y]'s length. *)

type ptc = {
  root : Vec.t option;
      (** the certified root; [None] when PTC gave up or its root is
          not stable *)
  iterations : int;  (** Newton steps taken *)
}

val pseudo_transient :
  ?deadline:int -> pattern:pattern -> f:rhs -> y0:Vec.t -> unit -> ptc
(** Pseudo-transient continuation toward a steady state f(y) = 0 of an
    autonomous rhs (called at t = 0) on a non-negative state space.
    Each iteration solves (I/Δt − J)·δ = f(y) with the forward-difference
    Jacobian over [pattern] ({!numeric_jacobian}; the Jacobian is only
    taken where f(y) is finite, so it equals the dense one bit for bit),
    scales δ by the largest α ≤ 1 that leaves every positive state at
    least 1 % of its value (0.99 of the way to the boundary), clips at
    0, and scales Δt by α when α < 1, so a step the boundary cut short
    also shortens the next.
    The next iteration sets Δt ← min(1e8, Δt·r_prev/r), from Δt = 1,
    where r = ‖f‖∞/(‖y‖∞+1).  Converged when r < 1e-10 {e and}
    ‖f‖∞ ≤ 1e-8: the relative test alone also passes on a state that
    runs away, because ‖y‖∞ grows.  Gives up after 200 iterations, on a
    singular matrix, or on a non-finite residual or state.

    A converged state is returned only when it is certified: every
    eigenvalue of its forward-difference Jacobian over [pattern] has a
    negative real part.  The certificate permutes the Jacobian's rows
    in the Newton workspace so that the pattern's blocks lie along the
    diagonal, reads a one-state block's eigenvalue off the diagonal, and
    runs {!Eigen.eigenvalues_in_place} on each larger block, compacted
    to the front of the buffer; it stops at the first block that fails.
    A root that fails the test, whose Jacobian has a non-finite entry
    (in any block, on or off the diagonal), or whose QR iteration hits
    its cap counts once in [ode.ptc.unstable] and gives [root = None].

    Each iteration costs one rhs evaluation plus one per column group,
    and the certificate one Jacobian more (counted in [ode.jacobians]
    and [ode.rhs_evals]).  The Jacobian, LU and scratch buffers are
    allocated once per call; the certificate allocates nothing.
    Raises [Invalid_argument] when the pattern's size is not [y0]'s
    length.
    [deadline] is polled once per iteration ({!Deadline} carries the
    pseudo-time reached).  One [ode.ptc] span and one [ode.ptc.calls]
    count per call; the [ode.ptc.iterations] and [ode.rhs_evals]
    counters are added once per call, on every exit. *)
