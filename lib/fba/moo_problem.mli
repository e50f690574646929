(** The paper's Geobacter design problem as a {!Moo.Problem}: maximize
    electron production and biomass production over the 608 reaction
    fluxes, steering the search toward steady state ([‖S·v‖ → 0]) under
    the network's biological bounds (Section 3.2).

    This is the paper's penalty formulation: candidates are raw flux
    vectors; [‖S·v‖] is the constraint violation and Deb's constrained
    dominance rewards less-violating solutions.  An [eps] tolerance
    treats candidates with [‖S·v‖ ≤ eps] as feasible so a trade-off
    front can form among near-steady solutions. *)

val problem : ?eps:float -> Geobacter.model -> Moo.Problem.t
(** The problem is named ["geobacter/penalty"].  [eps] defaults to
    [0.005] (in [‖S·v‖₂] units — tight enough that the ε-band cannot
    materially distort the small biomass flux). *)

val repair : Geobacter.model -> float array -> float array
(** Null-space projection ({!Network.projector}) followed by bound
    clipping.  [repair g] factors the projector and reads the network's
    bounds once; later {!Network.set_bounds} calls do not reach the
    returned function. *)

val flux_variation :
  Geobacter.model ->
  unit ->
  Numerics.Rng.t ->
  float array ->
  float array ->
  float array * float array
(** Variation operator for flux spaces, to plug into
    [Ea.Nsga2.config.variation]: whole-arithmetic blend of the parents
    (steady-state flux sets are convex, so blends preserve feasibility),
    Gaussian perturbation of a few fluxes (standard deviation 1 % of
    the flux's range, a range capped at 200), then three rounds of
    null-space projection ({!Network.projector}) and bound clipping,
    which keep the residual [‖S·v‖] inside the ε-band.  The projector
    is factored and the bounds are read once, when [flux_variation g ()]
    is applied; later {!Network.set_bounds} calls do not reach the
    operator. *)

val seeds : ?eps:float -> Geobacter.model -> levels:float list -> Moo.Solution.t list
(** FBA-derived seed solutions: for each biomass level, the LP solution
    maximizing electron production with that biomass lower bound —
    evaluated against {!problem} so they can seed the optimizer.  The
    paper enforces the FBA constraints as search-space boundaries; seeding
    from FBA vertices plays that role here. *)

val ep_of : Moo.Solution.t -> float
(** Electron production of a solution (un-negated objective 0). *)

val bp_of : Moo.Solution.t -> float
(** Biomass production (un-negated objective 1). *)
