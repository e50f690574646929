(** Nestable wall-clock spans, exportable as Chrome [trace_event] JSON.

    Tracing is process-global and {e off by default}: {!with_span} costs a
    single atomic load when disabled (see the [span-overhead] bench
    kernel).  When enabled, every span records its sequential id, its
    parent (innermost open span on the same domain), its domain, and
    start/duration on the monotonic {!Clock} — collection is keyed by
    domain and protected by a mutex, so islands running on separate
    domains can trace concurrently.

    Spans carry a logical process lane ([pid]): locally recorded spans
    are lane 0; shard workers {!drain} their spans tagged with their lane
    and the supervisor {!ingest}s them, producing one merged trace with
    one Perfetto process row per lane.  Because [CLOCK_MONOTONIC] is
    system-wide and forked workers inherit the supervisor's trace origin
    ({!on_fork} keeps it), worker timestamps land on the supervisor's
    timeline with no translation.

    Trace content is deterministic modulo timestamps: ids are assigned in
    a per-process sequence (workers restart at a supervisor-issued
    watermark, see {!on_fork}), and the export lists events in
    [(pid, id)] order.

    {!write_chrome} emits the Trace Event Format (complete ["X"] events,
    microsecond timestamps) that {{:https://ui.perfetto.dev}Perfetto} and
    [chrome://tracing] load directly. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Enabling for the first time (or after {!reset}) pins the trace time
    origin to "now"; timestamps in the export are relative to it. *)

val reset : unit -> unit
(** Drop all collected events (local and ingested), restart ids at 0 and
    re-pin the origin. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span named [name].  The span
    is recorded even when [f] raises (the exception is re-raised).
    [args] become the event's [args] in the trace.  When tracing is
    disabled this is [f ()].  Every enter/leave also drops an event into
    the always-on flight recorder ({!Ring}). *)

type event = {
  id : int;           (** sequential within the originating process *)
  parent : int;       (** id of the enclosing span on this domain, or -1 *)
  name : string;
  domain : int;       (** {!Domain.self} at the time of the span *)
  pid : int;          (** logical process lane: 0 = local/supervisor *)
  start_ns : int;     (** relative to the trace origin *)
  dur_ns : int;
  args : (string * string) list;
}

val events : unit -> event list
(** Collected events — local plus ingested — in [(pid, id)] order. *)

(** {2 Cross-process merging} *)

val drain : pid:int -> unit -> event list
(** Remove and return the locally recorded events, tagged with lane
    [pid], in id order.  Open spans and the id sequence are untouched, so
    a worker can drain at every phase boundary. *)

val ingest : event list -> unit
(** Add events drained from another process to this collector; they are
    exported alongside local events. *)

val on_fork : next_id:int -> unit
(** Reset a forked child's inherited collector: drop all inherited
    events, open stacks and labels, and restart the id sequence at
    [next_id] (the supervisor's watermark for this lane, keeping
    [(pid, id)] unique across worker incarnations).  The trace origin is
    deliberately kept — [CLOCK_MONOTONIC] is system-wide, so the
    inherited origin puts the child on the parent's timeline. *)

val set_process_label : int -> string -> unit
(** Display name for a pid lane in the exported trace ([process_name]
    metadata).  Lane 0 defaults to ["supervisor"]. *)

(* robustlint: allow R12 — test_obs's "chrome roundtrip" and @trace-check validate the document it builds *)
val export_chrome : unit -> Json.t
(** The whole trace as a [{"traceEvents": [...]}] document, with
    [process_name]/[thread_name] metadata per lane and domain. *)

val write_chrome : path:string -> unit

(** {2 Self-time summary} *)

type summary_row = {
  row_name : string;
  row_pid : int;   (** lane, or -1 when aggregated across lanes *)
  calls : int;
  total_ns : int;  (** summed wall time of spans with this name *)
  self_ns : int;   (** total minus time spent in direct children *)
  p50_ns : int;    (** duration quantiles over this row's spans *)
  p90_ns : int;
  p99_ns : int;
}

val summarize : ?by_process:bool -> event list -> summary_row list
(** Aggregate per span name — or per [(pid, name)] with
    [~by_process:true] — sorted by self time (descending).  Child
    self-time subtraction is always per-process: a span's direct
    children are looked up by [(pid, parent)], so merged traces never
    charge one lane's children against another lane's span that happens
    to share the id. *)

val events_of_chrome : Json.t -> event list
(** Re-read a trace written by {!write_chrome} (the inverse of
    {!export_chrome}); raises [Invalid_argument] when the document has no
    [traceEvents] array. *)

val pp_summary : ?top:int -> Format.formatter -> summary_row list -> unit
(** Table of the top [top] (default 15) rows by self time; includes a
    pid column when any row carries one, and p50/p90/p99 duration
    columns. *)
