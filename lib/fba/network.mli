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

val matrix : t -> Numerics.Sparse.csc
(** S in compressed columns, rows sorted within each column: built on
    first use, cached, and rebuilt after an [add_reaction].  Every
    caller shares the one value, so LP specs built from it carry
    physically equal matrices. *)

val violation : t -> float array -> float
(** [‖S·v‖₂] of a flux vector, from the cached S.  It allocates nothing:
    [S·v] goes to the calling domain's workspace, which it shares with
    {!projector}.  Raises [Invalid_argument] unless [v] has one entry
    per reaction. *)

val projector : t -> float array -> unit
(** [projector net] is the least-squares projection onto the null space
    of S, [v ↦ v − Sᵀ(S·Sᵀ + 1e-9·I)⁻¹·S·v], applied in place: the call
    overwrites its argument.  The ridge keeps [S·Sᵀ] invertible when
    rows of S are dependent.  [S·Sᵀ] is built sparse and factored once
    with {!Numerics.Sparse_lu} when the projector is built; each call is
    then one sparse solve in the calling domain's workspace and
    allocates nothing, so one projector may run in several domains at
    once.  The projector keeps the S it was built from, so a later
    [add_reaction] does not reach it.  Raises [Invalid_argument] unless
    the argument has one entry per reaction of that S. *)
