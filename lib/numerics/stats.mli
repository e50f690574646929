(** Descriptive statistics over [float array] samples. *)

val mean : float array -> float

val median : float array -> float
(** Median (does not mutate its argument). *)

val quantile : float array -> float -> float
(** [quantile xs p] with linear interpolation, [p] in [\[0, 1\]]. *)
