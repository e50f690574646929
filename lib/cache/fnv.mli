(** Canonical hashing of decision vectors.

    The cache layer keys everything on the exact IEEE-754 bit pattern of
    the float vector: two genotypes are "the same" iff every coordinate
    has the same bits.  That makes a memo hit trivially bit-identical to
    re-evaluation — the stored objectives {e are} the objectives the
    evaluator would return — which is the determinism contract the
    archipelago relies on.

    FNV-1a (64-bit) is used because it is endian-stable, allocation-free
    and has no seed: the same vector hashes identically in every domain
    of the pool and across runs, so hash-keyed structures stay
    deterministic. *)

val hash : float array -> int64
(** FNV-1a over the IEEE-754 bit patterns of the coordinates.
    [-0.] and [0.] hash differently (they are different genotypes to a
    bit-exact memo); NaNs hash by their payload bits. *)

val equal : float array -> float array -> bool
(** Bit-exact equality: same length and same [Int64.bits_of_float] at
    every index.  Unlike [=] this is total on NaNs and distinguishes
    signed zeros, matching {!hash}. *)
