(** Eigenvalues of a dense real matrix.

    Parlett–Reinsch balancing, reduction to upper Hessenberg form by
    stabilized elementary similarity transforms, then Francis
    double-shift QR: the EISPACK [balanc]/[elmhes]/[hqr] sequence,
    eigenvalues only.  {!Ode.pseudo_transient} runs it on each diagonal
    block of the Jacobian of each root it finds, in its own Newton
    workspace. *)

val eigenvalues_in_place : n:int -> float array -> Vec.t -> Vec.t -> bool
(** [eigenvalues_in_place ~n a wr wi] writes the real and imaginary
    parts of the eigenvalues of the row-major n×n matrix held in the
    first n² entries of [a] into the first [n] entries of [wr] and
    [wi], overwriting those n² entries and no others.  A complex pair
    occupies adjacent entries, negative imaginary part first.  Returns
    false, with [wr] and [wi] unspecified, when one of the n² entries is
    not finite or when the QR iteration spends 30 sweeps on one
    eigenvalue without deflating it.  Allocates nothing.  Raises
    [Invalid_argument] unless [a] has at least n² entries and [wr], [wi]
    at least [n]. *)
