(** Dense vector operations over [float array].

    Vectors are plain [float array]s so they interoperate with the rest of
    the stdlib; this module only adds the kernels the library needs.
    Binary operations require equal lengths and raise [Invalid_argument]
    otherwise. *)

type t = float array

val dist2 : t -> t -> float
(** Euclidean distance. *)
