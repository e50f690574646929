(** OptKnock-style reaction-knockout screening (Burgard et al. 2003, the
    approach the paper cites as the established alternative to its
    multi-objective formulation).

    The full OptKnock is a bilevel MILP; this module implements the
    enumerative variant: knock out one (or a pair of) candidate
    reaction(s), re-solve the FBA LP maximizing the engineering target
    subject to a minimum biomass, and rank the knockouts by the target
    flux they enable.  Exact for small candidate sets. *)

type knockout = {
  removed : int list;     (** knocked-out reaction indices *)
  target_flux : float;    (** optimal target flux after the knockout *)
  biomass_flux : float;   (** biomass at that optimum *)
}

val single :
  t:Network.t ->
  target:int ->
  biomass:int ->
  min_biomass:float ->
  candidates:int list ->
  knockout list
(** One-at-a-time knockouts of the candidates, sorted by decreasing
    target flux.  Lethal knockouts (biomass constraint infeasible) are
    dropped.  The network's bounds are restored afterwards, also when a
    solve raises.

    Each knockout LP warm-starts from the wild-type optimal basis under
    the biomass floor (cold when the wild type is infeasible); since a
    knockout only pins bounds, that basis stays dual-feasible and the
    solve runs as a dual-simplex bound repair, reaching the same optimum
    as a cold solve up to rounding. *)

val pairs :
  t:Network.t ->
  target:int ->
  biomass:int ->
  min_biomass:float ->
  candidates:int list ->
  knockout list
(** All unordered pairs from the candidates (O(k²) LP solves), each
    warm-started from the wild-type basis like {!single}. *)

type coupling = {
  removed_reactions : int list;
  biomass_opt : float;     (** maximal growth after the knockouts *)
  target_at_growth : float * float;
      (** (min, max) target flux with growth fixed at [0.999·biomass_opt]
          — the guaranteed (growth-coupled) production window *)
}

val growth_coupled :
  t:Network.t -> target:int -> biomass:int -> removed:int list -> coupling option
(** OptKnock's actual success criterion: after the knockouts, maximize
    growth, then bound the target flux at that growth.  A strictly
    positive minimum means production is {e growth-coupled} — the cell
    cannot grow optimally without making the product.  [None] when the
    knockouts abolish growth. *)
