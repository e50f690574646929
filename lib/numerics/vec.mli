(** Dense vector operations over [float array].

    Vectors are plain [float array]s so they interoperate with the rest of
    the stdlib; this module only adds the numerical kernels the library
    needs (BLAS-1 style).  All binary operations require equal lengths and
    raise [Invalid_argument] otherwise. *)

type t = float array

val make : int -> float -> t
val init : int -> (int -> float) -> t
val copy : t -> t
val zeros : int -> t

val add : t -> t -> t
(** Elementwise sum (fresh vector). *)

val sub : t -> t -> t
(** Elementwise difference (fresh vector). *)

val mul : t -> t -> t
(** Elementwise (Hadamard) product. *)

val scale : float -> t -> t
(** [scale a x] is [a*x] (fresh vector). *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] sets [y <- a*x + y] in place. *)

val dot : t -> t -> float
val norm2 : t -> float
val norm_inf : t -> float
val norm1 : t -> float

val dist2 : t -> t -> float
(** Euclidean distance. *)

val sum : t -> float
val mean : t -> float
val min : t -> float
val max : t -> float

val map : (float -> float) -> t -> t
val mapi : (int -> float -> float) -> t -> t

val clamp : lo:t -> hi:t -> t -> t
(** Componentwise clamp of a vector into a box. *)

val lerp : t -> t -> float -> t
(** [lerp a b t] is [(1-t)*a + t*b]. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Max-norm comparison, default [tol = 1e-9]. *)

val pp : Format.formatter -> t -> unit
