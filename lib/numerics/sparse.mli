(** Sparse matrices in column-major triplet form, sized for stoichiometric
    matrices and LP bases (hundreds of rows, hundreds of columns, ~1%
    fill).  The mutable builder type {!t} is hash-backed; {!compress}
    freezes it into an immutable CSC form whose kernels iterate in
    sorted row order, so every accumulation is reproducible bit-for-bit
    across runs, domains and processes. *)

type t

val create : rows:int -> cols:int -> t

val set : t -> int -> int -> float -> unit
(** [set m i j v] — setting a previously set entry overwrites it;
    setting [0.] removes it. *)

(** {1 Compressed sparse columns}

    An immutable snapshot with O(1) column slicing and allocation-free
    column iteration — the form the LP and Jacobian kernels consume. *)

type csc

val compress : t -> csc

val csc_column : csc -> int -> (int * float) list
val csc_mv : csc -> float array -> float array
val csc_tmv : csc -> float array -> float array

val csc_gram : ridge:float -> csc -> (int * float) list array
(** [csc_gram ~ridge c] is [c·cᵀ + ridge·I] as sparse columns sorted
    by row, the input {!Sparse_lu.factor} takes.
    Each entry is summed over the columns of [c] in ascending order, so
    it equals the dense row-by-row product bit for bit; exactly cancelled
    entries are dropped. *)
