(** Stoichiometric metabolic networks for constraint-based modeling.

    A network holds named metabolites, reactions with sparse stoichiometry
    and flux bounds, and exposes the stoichiometric matrix S (metabolites ×
    reactions).  Steady-state flux vectors satisfy [S·v = 0] with
    [lb ≤ v ≤ ub]; exchange fluxes model transport across the boundary. *)

type reaction = {
  name : string;
  stoich : (int * float) list;  (** (metabolite index, coefficient) *)
  lb : float;
  ub : float;
}

type t

val create : metabolites:string array -> unit -> t
val add_reaction : t -> name:string -> stoich:(int * float) list -> lb:float -> ub:float -> int
(** Returns the reaction's index. *)

val n_metabolites : t -> int
val n_reactions : t -> int
val reaction : t -> int -> reaction

val bounds : t -> (float * float) array
val set_bounds : t -> int -> float -> float -> unit

val columns : t -> (int * float) list array
(** The columns of S as sparse [(metabolite, coefficient)] lists sorted
    by row, built once from S in compressed columns (cached, and
    invalidated by [add_reaction]) and cached beside it.  Invalidated by [add_reaction].  The array and its lists are
    shared by every caller, so LP specs built from them carry physically
    equal columns; treat them as read-only. *)

val violation : t -> float array -> float
(** [‖S·v‖₂] of a flux vector, from the cached S. *)

val projector : t -> float array -> float array
(** [projector net] is the least-squares projection onto the null space
    of S: [v ↦ v − Sᵀ(S·Sᵀ + 1e-9·I)⁻¹·S·v].  The ridge keeps [S·Sᵀ]
    invertible when rows of S are dependent.  [S·Sᵀ] is built sparse and
    factored once with {!Numerics.Sparse_lu} when the projector is built;
    each call is then one sparse solve.  The projector keeps the S it was
    built from, so a later [add_reaction] does not reach it. *)
