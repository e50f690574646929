(** Process-global metrics: named counters, gauges and fixed-bucket
    histograms with a JSONL snapshot writer.

    The registry is mutex-protected; the hot paths ({!incr}, {!add},
    {!observe}, {!set_gauge}) allocate nothing and are guarded by a
    single atomic load, so instrumented kernels pay only a load and a
    branch when metrics are disabled (see the [metrics-overhead] bench
    kernel).  Counters are exact under parallel islands (atomic
    increments); histogram updates take a per-histogram mutex.

    Registration is idempotent: [counter "x"] returns the existing
    counter on the second call, so instrumented modules can register at
    module-init time without coordination.  Metric values survive
    {!set_enabled}[ false]; {!reset} zeroes them.

    Snapshots are deterministic modulo nothing at all — counter values
    are exact and names are emitted in sorted order — so two runs with
    the same seed produce identical JSONL streams. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every registered metric, drop stored contributions and restart
    the snapshot sequence (registrations themselves persist for the
    process lifetime). *)

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Register (or look up) a monotonically increasing counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : string -> gauge
(** Register (or look up) a gauge: a last-write-wins float. *)

val set_gauge : gauge -> float -> unit

(** {2 Histograms} *)

type histogram

val default_ms_buckets : float array
(** [0.01 .. 5000] ms, roughly logarithmic — suitable for latencies. *)

val histogram : ?buckets:float array -> string -> histogram
(** Register (or look up) a histogram with the given upper bucket bounds
    (strictly increasing; an implicit [+inf] bucket is appended).  Raises
    [Invalid_argument] on empty/non-increasing bounds, or when
    re-registering an existing name with different bounds. *)

val observe : histogram -> float -> unit

val quantile_of : le:float array -> counts:int array -> float -> float
(** [quantile_of ~le ~counts q] estimates the [q]-quantile (0 ≤ q ≤ 1)
    of a histogram's observations by linear interpolation inside the
    bucket holding the rank.  Values in the [+inf] bucket are reported
    as the last finite bound (an underestimate).  NaN when the histogram
    is empty; raises [Invalid_argument] when [q] is outside [0, 1].
    Takes raw bucket data (as found in a JSONL snapshot's
    ["le"]/["counts"] arrays) — used by [trace-summary] and [report] on
    persisted metrics. *)

(** {2 Cross-process deltas}

    A shard worker ships its metric state to the supervisor as a
    {!delta}; the supervisor stores each worker's latest delta under a
    per-spawn {e contribution key} and {!snapshot} folds contributions
    into the local values.  A worker's delta is cumulative since its
    fork, so replace-on-flush plus sum-across-keys keeps merged counters
    exact across kills, restarts and degradation. *)

type hist_data = {
  hd_le : float array;
  hd_counts : int array;
  hd_count : int;
  hd_sum : float;
}

type delta = {
  d_counters : (string * int) list;   (** sorted by name, zeros included *)
  d_gauges : (string * float) list;   (** sorted by name, NaN (unset) omitted *)
  d_histograms : (string * hist_data) list;  (** sorted by name *)
}

val delta : unit -> delta
(** The process's current metric state as plain marshalable data. *)

val set_contribution : key:int -> delta -> unit
(** Store (replacing) the delta contributed under [key]. *)

(** {2 Snapshots} *)

val snapshot : ?label:string -> unit -> Json.t
(** One JSON object:
    [{"seq":N,"label":...,"counters":{...},"gauges":{...},
      "histograms":{name:{"le":[...],"counts":[...],"count":N,"sum":S}}}]
    with names sorted.  Local values are folded with all stored
    contributions: counters sum, gauges prefer the local value (falling
    back to the highest-keyed contributor), histograms with identical
    bounds sum elementwise.  Each call advances the sequence number. *)

val write_snapshot : ?label:string -> out_channel -> unit
(** Append {!snapshot} as one JSONL line and flush. *)
