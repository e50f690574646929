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

    An immutable snapshot whose kernels walk flat arrays — the form the
    LP, the LU and the flux projector consume.  The fields are readable
    so those kernels can walk a column without a call per entry; only
    this module builds one, so the row invariants below always hold. *)

type csc = private {
  cs_rows : int;
  cs_cols : int;
  col_ptr : int array;
      (** column [j] is entries [col_ptr.(j)] to [col_ptr.(j+1) - 1] *)
  row_idx : int array;   (** strictly ascending within each column, in [0, cs_rows) *)
  values : float array;
}
(** Treat the arrays as read-only. *)

val compress : t -> csc

val csc_view :
  rows:int -> cols:int -> col_ptr:int array -> row_idx:int array -> values:float array -> csc
(** Compressed columns over caller-owned arrays, without copying them:
    column [j] is entries [col_ptr.(j)] to [col_ptr.(j+1) - 1] of
    [row_idx] and [values], which may be longer than that.  Raises
    [Invalid_argument] unless [col_ptr] starts at 0 and never decreases
    and every column's rows are in range and strictly ascending.  The
    view shares the arrays, so hold it only while they stay unchanged:
    it is meant for a scratch matrix handed straight to a kernel. *)

val csc_mv_into : csc -> float array -> float array -> unit
(** [csc_mv_into c x out] writes [c·x] into the first [cs_rows] entries
    of [out], overwriting them, and allocates nothing.  Raises
    [Invalid_argument] unless [x] has [cs_cols] entries and [out] at
    least [cs_rows]. *)

val csc_tmv_sub : csc -> float array -> float array -> unit
(** [csc_tmv_sub c y x] is [x ← x − cᵀ·y], reading the first [cs_rows]
    entries of [y]: each entry of [cᵀ·y] is summed in full, in ascending
    row order, before it is subtracted.  It allocates nothing.  Raises
    [Invalid_argument] unless [x] has [cs_cols] entries and [y] at least
    [cs_rows]. *)

val csc_gram : ridge:float -> csc -> csc
(** [csc_gram ~ridge c] is [c·cᵀ + ridge·I], the input
    {!Sparse_lu.factor} takes for the flux projector.
    Each entry is summed over the columns of [c] in ascending order, so
    it equals the dense row-by-row product bit for bit; exactly cancelled
    entries are dropped. *)
