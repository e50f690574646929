(** Mutex-guarded LRU memo from decision vectors to evaluation results.

    One memo per island: lookups and insertions take the memo's mutex,
    so an island evolving on a pool worker can share its memo with the
    pooled population evaluator without races, while distinct islands
    never contend (they own distinct memos).

    {2 Determinism contract}

    Keys are compared bit-exactly ({!Fnv.equal}), so a hit returns a
    value that was produced by evaluating the {e identical} vector —
    results with the memo enabled are bit-for-bit the results without
    it.  Eviction is deterministic (strict least-recently-used order,
    maintained by an intrusive doubly-linked list) provided the sequence
    of [find]/[add] calls is deterministic; {!Batch.evaluate} guarantees
    that by doing all memo traffic sequentially in index order.

    Checkpoint semantics: memos are {e not} checkpointed.  A resumed run
    calls {!clear} and re-populates from scratch; since hits only ever
    replay bit-identical values, the resumed trajectory matches the
    uninterrupted one regardless of cache temperature.

    Observability: [cache.hits], [cache.misses], [cache.insertions] and
    [cache.evictions] counters tick when {!Obs.Metrics} is enabled; the
    per-instance {!stats} are always maintained (under the mutex) so the
    CLI can report hit rates without enabling metrics. *)

type 'a t

val create : capacity:int -> 'a t
(** An empty memo holding at most [capacity] entries.  Raises
    [Invalid_argument] when [capacity < 1]. *)

val find : 'a t -> hash:int64 -> float array -> 'a option
(** [find t ~hash key] is a bit-exact lookup of [key], whose {!Fnv.hash}
    the caller has already computed ({!Batch.evaluate} hashes each key
    once for its dedup and passes that hash here).  A hit refreshes the
    entry's recency.  [Fnv.equal] decides every hit, so a wrong [hash]
    can only make the lookup miss. *)

val add : 'a t -> hash:int64 -> float array -> 'a -> unit
(** [add t ~hash key v] inserts [key] (copied) under [hash], its
    {!Fnv.hash}, as the most recent entry, evicting the least recently
    used entry when full.  Re-adding an existing key replaces its value
    and refreshes recency without evicting.  An entry filed under a
    wrong hash is never found by a lookup with the right one. *)

val clear : 'a t -> unit
(** Drop every entry (the flush used on checkpoint restore).  Lifetime
    hit/miss counters survive; [size] returns to 0. *)

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  size : int;      (** current entry count *)
  capacity : int;
}

val stats : 'a t -> stats

val zero_stats : stats
val add_stats : stats -> stats -> stats
(** Componentwise sum (capacities add), for aggregating per-island memos. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when no lookups happened. *)
