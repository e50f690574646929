(** Deduplicated, memoized, pool-fanned batch evaluation.

    The single entry point the evolutionary algorithms route their
    population evaluations through.  For a batch of [n] candidate
    vectors it:

    + {b dedups} bit-identical vectors within the batch (clones that
      survive crossover/mutation unchanged are evaluated once and share
      the result) — sequentially, in index order;
    + {b looks up} each distinct representative in the optional
      {!Memo} — sequentially, in first-occurrence order, so recency
      updates are deterministic;
    + {b evaluates} the remaining misses with [f] — on the pool when
      one is given (each miss is a pure function of its index, so the
      pooled map is bit-identical to the sequential one);
    + {b inserts} the miss results into the memo — again sequentially
      in first-occurrence order, so LRU eviction is deterministic;
    + {b scatters} representative results back to all [n] slots.

    Because a memo hit replays a value computed from a bit-identical
    vector and everything order-sensitive happens sequentially, the
    output array is bit-for-bit the array [Array.init n f] would
    produce, at any pool width, with or without the memo. *)

val evaluate :
  ?pool:Parallel.Pool.t ->
  ?memo:'a Memo.t ->
  n:int ->
  key:(int -> float array) ->
  (int -> 'a) ->
  'a array
(** [evaluate ?pool ?memo ~n ~key f] returns [[| f 0; …; f (n-1) |]],
    where [key i] is the decision vector determining [f i] ([f] must be
    a pure function of it).  [f] is called exactly once per distinct
    key not already in the memo, at the key's first occurrence index. *)
