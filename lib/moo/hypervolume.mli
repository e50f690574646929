(** Hypervolume indicator (Zitzler et al.), for minimized objectives.

    The hypervolume of a point set [S] w.r.t. a reference point [r] is the
    Lebesgue measure of the region dominated by [S] and bounded above by
    [r].  Exact sweep in two dimensions, recursive slicing (HSO) in higher
    dimensions. *)

val compute : ref_point:float array -> float array list -> float
(** [compute ~ref_point fronts] — points not strictly dominating the
    reference point are ignored; dominated points contribute nothing. *)

val of_solutions : ref_point:float array -> Solution.t list -> float

val normalized : ref_point:float array -> ideal:float array -> float array list -> float
(** Hypervolume of the points affinely rescaled so that [ideal ↦ 0] and
    [ref_point ↦ 1] on every axis; the result lies in [\[0, 1\]] and is the
    [Vp] indicator reported in the paper's Table 1. *)
