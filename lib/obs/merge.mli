(** Cross-process observability aggregation.

    Shard workers package their trace spans and metric state as a
    {!flush} and ship it to the supervisor inside phase replies (the
    [Obs] payload of the shard wire grammar, DESIGN §14); the supervisor
    {!absorb}s each flush it commits.  Workers never write observability
    files themselves — a worker can be SIGKILLed at any moment, and only
    committed flushes may count. *)

type flush = {
  f_spans : Span.event list;
  (** spans drained since the previous flush, tagged with the worker's
      lane *)
  f_metrics : Metrics.delta;
  (** the worker's cumulative metric state since its fork (replace
      semantics on absorb) *)
}

val capture_if_enabled : pid:int -> unit -> flush option
(** Drain local spans (tagged [pid]) and snapshot the metric delta, or
    [None] when neither tracing nor metrics is enabled — keeps the wire
    payload empty on unobserved runs. *)

val absorb : key:int -> flush -> unit
(** Ingest the spans and store the metric delta under contribution
    [key] (one key per worker spawn). *)

val max_span_id : flush -> int
(** Largest span id in the flush, or -1 when empty — the supervisor
    advances its per-lane id watermark past this. *)
