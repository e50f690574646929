(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the library threads an explicit [Rng.t]
    so that experiments are reproducible from a single seed.  SplitMix64 is
    small, fast, passes BigCrush, and supports cheap stream splitting, which
    the island model uses to give each island an independent stream. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split r] derives a statistically independent generator from [r],
    advancing [r]. *)

val stream : seed:int -> int -> t
(** [stream ~seed k] is the [k]-th derived SplitMix64 stream of [seed]:
    a pure function of [(seed, k)], independent of any other stream and
    of execution order.  This is the RNG-splitting scheme behind
    deterministic parallelism — give task [k] the stream [k] and the
    results are bit-for-bit identical whether the tasks run sequentially
    or on any number of worker domains.  Requires [k >= 0]. *)

val state : t -> int64
(** Raw generator state, for checkpointing.  [set_state r s] resumes
    the stream exactly where [state] captured it. *)

val set_state : t -> int64 -> unit
(** Overwrite the generator state in place (checkpoint restore). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform draw in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform r lo hi] draws uniformly from [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int r n] draws uniformly from [\[0, n)]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli r p] is [true] with probability [p]. *)

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal draw via Box–Muller (unpaired). Defaults: [mu = 0.], [sigma = 1.]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_indices : t -> n:int -> k:int -> int array
(** [sample_indices r ~n ~k] draws [k] distinct indices from [\[0, n)]
    uniformly (partial Fisher–Yates). Requires [0 <= k <= n]. *)
