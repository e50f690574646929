(** Run reports: join a run's trace and metrics JSONL into one textual
    summary (the [robustpath report] subcommand; the checkpoint section
    is added by the CLI, which owns the archipelago dependency). *)

type metrics_file = {
  snapshots : Json.t list;  (** parsed JSONL lines, in file order *)
  torn : int;               (** torn/unparseable lines skipped *)
}

val read_metrics : path:string -> metrics_file
(** Read a metrics JSONL stream tolerantly: unparseable lines — e.g. a
    final line torn by a kill mid-write — are skipped and counted, not
    fatal. *)

val pp : ?trace:Span.event list -> ?metrics:metrics_file -> Format.formatter -> unit -> unit
(** Render the report sections available from the given artifacts:
    per-(process, span) self-time table; shard restart/kill/backoff
    timeline with restart-latency p50/p90/p99; guarded-evaluation,
    cache-hit-rate and ODE-solver counts from the final snapshot; and
    the hypervolume trajectory across snapshots.  Sections with no data
    are omitted. *)
