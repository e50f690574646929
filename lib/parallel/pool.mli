(** Persistent pool of worker domains with one shared index cursor.

    The pool exists because [Domain.spawn] costs milliseconds: spawning
    per work item (or per epoch) wastes more time than the work saves.
    A pool is created once, its workers park on a condition variable
    between jobs, and every embarrassingly parallel hot path — island
    epochs, population evaluation, Monte-Carlo robustness ensembles —
    submits a map over item indices to the same long-lived domains.

    {2 Scheduling}

    A job is a map over [0, n).  The submitting domain and every worker
    claim the next index with one atomic fetch-and-add until the cursor
    passes [n], so a domain that finishes an item early simply claims
    another.  The pooled items here (an epoch's islands, a population's
    memo misses, a screen's Γ trials) cost 0.2 ms or more each, which
    makes one claim per item cheap.

    {2 Determinism contract}

    Which domain runs which item is nondeterministic; results are not,
    because every item is a pure function of its index and writes only
    its own slot of the result.  Stochastic workloads keep the contract
    by deriving an independent SplitMix64 stream per item with
    {!Numerics.Rng.stream} — never by sharing one sequential stream
    across items.  Consequently a pooled computation is bit-for-bit
    identical to the sequential path at any worker count; a one-domain
    pool runs that path, inline and in index order, which makes it the
    reference for differential testing.

    A job of at most one item, a one-domain or shut-down pool and an
    item that itself calls {!parallel_map} (nested parallelism) all run
    inline in the calling domain — nesting degrades gracefully instead
    of deadlocking.  Concurrent submissions from distinct domains
    serialize.

    Observability: the pool feeds two process-global metrics —
    [pool.tasks] (items run, inline ones included) and [pool.idle_ns]
    (time workers spent parked between jobs) — and brackets each pooled
    submission in a [pool.run] span. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] starts a pool of [domains] workers in total:
    the submitting domain participates, so [domains - 1] new domains
    are spawned.  Default: [Domain.recommended_domain_count ()].
    Raises [Invalid_argument] when [domains < 1]. *)

val domains : t -> int
(** Total worker count, including the submitting domain. *)

val shutdown : t -> unit
(** Park, wake and join all spawned workers.  Idempotent.  Submitting
    to a shut-down pool runs the items inline in the caller. *)

val parallel_map : t -> n:int -> (int -> 'a) -> 'a array
(** [parallel_map pool ~n f] is [[| f 0; …; f (n-1) |]]; results are
    placed by index, so the output array is independent of scheduling.
    Exceptions raised by items are collected and the one from the
    lowest index is re-raised after every item has settled.  Raises
    [Invalid_argument] when [n < 0]. *)

(** {2 The process-wide default pool} *)

val set_default_domains : int -> unit
(** Request a worker count for the default pool.  An already-created
    default pool of a different size is shut down and replaced on the
    next {!get}.  Raises [Invalid_argument] when the count is [< 1]. *)

val get : unit -> t
(** The process-wide persistent pool, created on first use with the
    requested (or recommended) worker count and joined at exit. *)

(** {2 Counters} *)

type stats = {
  tasks : int;  (** items run (pool.tasks) *)
  idle_ns : int;  (** worker time parked between jobs (pool.idle_ns) *)
}

val stats : unit -> stats
(** Read the pool's process-global obs counters.  Counters only
    accumulate while [Obs.Metrics] is enabled. *)
