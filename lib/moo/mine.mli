(** Trade-off mining over a Pareto front (Section 2.2 of the paper).

    The ideal point used throughout is the {e Pareto Relative Minimum}
    (PRM): the componentwise minimum actually achieved by the front, so no
    knowledge of the true per-objective optima is needed. *)

val ideal_point : Solution.t list -> float array
(** PRM: componentwise minimum of the front's objectives.
    Requires a non-empty front. *)

val nadir_point : Solution.t list -> float array
(** Componentwise maximum of the front's objectives. *)

val closest_to_ideal : Solution.t list -> Solution.t
(** The front member minimizing the Euclidean distance to the ideal point,
    with objectives first rescaled by the front's ranges so
    incommensurable units weigh equally. *)

val shadow_minima : Solution.t list -> Solution.t array
(** [shadow_minima front] returns, per objective [k], the member attaining
    the lowest value of objective [k]. *)

val equally_spaced : k:int -> Solution.t list -> Solution.t list
(** [k] members spaced uniformly in (normalized) arc length along the
    front, ordered by the first objective.  Returns the whole front when it
    has at most [k] members. *)
