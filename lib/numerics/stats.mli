(** Descriptive statistics over [float array] samples. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singletons. *)

val stddev : float array -> float
val minimum : float array -> float
val maximum : float array -> float

val median : float array -> float
(** Median (does not mutate its argument). *)

val quantile : float array -> float -> float
(** [quantile xs p] with linear interpolation, [p] in [\[0, 1\]]. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

val summarize : float array -> summary

val histogram : ?bins:int -> float array -> (float * int) array
(** [histogram ~bins xs] returns [(left_edge, count)] pairs over equal-width
    bins spanning the data range. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient. *)
