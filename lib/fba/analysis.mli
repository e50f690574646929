(** Flux-balance analysis on top of the simplex solver (the COBRA-toolbox
    functionality the paper leans on). *)

type solution = { objective : float; fluxes : float array }

exception Infeasible_model of string

val spec_of : t:Network.t -> obj:float array -> Lp.Simplex.spec
(** The raw LP behind {!fba}: steady state [S·v = 0] with the network's
    bounds and a dense objective vector over reactions.  Its [cols] is
    the network's cached {!Network.matrix}, shared by every spec of the
    same network (so warm starts between them reuse the carried LU).
    Exposed so harnesses (the [bench-simplex] legs in particular) can
    drive {!Lp.Simplex.solve} directly on the same LP. *)

val fba : t:Network.t -> objective:int -> solution
(** Maximize the flux through reaction [objective] subject to [S·v = 0]
    and the network's bounds. *)

val fba_multi : t:Network.t -> objective:(int * float) list -> solution
(** Maximize a weighted combination of fluxes. *)

val fba_with_basis :
  ?basis:Lp.Simplex.basis ->
  t:Network.t ->
  objective:int ->
  unit ->
  solution * Lp.Simplex.basis option
(** {!fba} with simplex warm-start plumbing: pass the basis returned by
    a previous structurally-identical solve (same network dimensions —
    bounds and objective may differ) to skip phase 1; receive this
    solve's optimal basis for the next one.  Warm solves take
    {!Lp.Simplex.solve}'s dual decision tree: when only bounds changed
    since the parent basis was optimal (knockouts, ε-constraint levels,
    dynamic-FBA steps) the still-dual-feasible vertex is repaired by
    dual iterations instead of a primal phase 2.  The solution is
    identical to the cold {!fba} — only the work to reach it changes.
    An unusable basis is rejected inside the solver, never an error. *)

val fba_multi_with_basis :
  ?basis:Lp.Simplex.basis ->
  t:Network.t ->
  objective:(int * float) list ->
  unit ->
  solution * Lp.Simplex.basis option
(** {!fba_multi} with the same warm-start plumbing. *)

val fva : t:Network.t -> reactions:int list -> (int * (float * float)) list
(** Flux variability: min and max achievable steady-state flux for each
    listed reaction. *)

val epsilon_constraint :
  t:Network.t -> primary:int -> secondary:int -> levels:float list ->
  (float * float) list
(** Exact Pareto front sweep by LP: for each level [b], maximize
    [primary] subject to [secondary ≥ b]; returns
    [(primary*, level)] pairs for feasible levels.  The network's bounds
    are restored on return and on any exception. *)
