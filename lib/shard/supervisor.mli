(** Multi-process sharded archipelago runner.

    Partitions the islands across [shards] forked worker processes and
    runs {!Pmo2.Archipelago.run_with} with its island phase carried out
    by the workers over the {!Wire} protocol, while the supervisor keeps
    the canonical {!Pmo2.Archipelago.state}.  Worker replies are buffered
    and committed only when every worker answered, so a crashed, killed
    or wedged worker can always be replaced by a fresh fork of the
    canonical state that replays the identical work — final fronts are
    bit-for-bit identical to the in-process archipelago at any shard
    count, crashes or not.

    Supervision per shard: one request and one reply per epoch, and one
    deadline — a worker must reply within [epoch_deadline] of being sent
    its step, or it is SIGKILLed (hard preemption — covers wedged
    evaluations that cooperative deadlines cannot interrupt).  A worker
    that dies, tears its reply, misses its deadline or cannot take its
    step is restarted the same way, with exponential backoff under
    [retry_budget], each respawn under a fresh deadline; a shard that
    exhausts its budget is lost, the partition is rebuilt over fewer
    shards, and with no shards left the run continues in-process.

    Fork safety: {!run} must be called before any domains are spawned
    (no {!Parallel.Pool} may exist); it forces [parallel = false] and
    strips algorithm pools from the config it is given.  Checkpoints
    written by a sharded run use the standard archipelago format and are
    interchangeable with in-process checkpoints, both directions. *)

type config = {
  shards : int;             (** worker processes; clamped to the island count *)
  retry_budget : int;       (** restarts per shard before it is declared lost *)
  epoch_deadline : float;
      (** wall-clock seconds from sending a worker its step to its reply
          before SIGKILL; an island phase may compute for this long *)
  backoff_base : float;     (** restart backoff seconds, doubled per restart *)
  backoff_cap : float;      (** backoff ceiling, seconds *)
  fault : Runtime.Fault.process_fault option;
      (** injected process fault ([--fault-kill-shard]); [None] in production *)
  ring_prefix : string option;
      (** when set, the supervisor's flight recorder is mapped to
          [PREFIX.supervisor.ring] and each worker incarnation's to
          [PREFIX.shardN.incM.ring] — a SIGKILLed shard leaves a
          post-mortem that [robustpath inspect] renders *)
  tick : (unit -> unit) option;
      (** called periodically (at least every 0.25 s while waiting on
          workers, and at each epoch boundary) on the supervisor —
          carries [--metrics-interval] flushing.  Must be fast and must
          not touch the wire. *)
}

val default : config
(** 2 shards, 2 restarts per shard, 120 s reply deadline,
    20 ms backoff doubling to 0.5 s, no fault, no flight-recorder files,
    no tick. *)

type stats = {
  shards_requested : int;
  shards_used : int;     (** partition size at run end; 0 = degraded to in-process *)
  spawns : int;          (** worker processes forked, restarts included *)
  restarts : int;        (** supervised restarts *)
  kills : int;           (** SIGKILL preemptions (missed deadlines) *)
  lost : int;            (** shards permanently lost to budget exhaustion *)
  backoff_ms : float;    (** total backoff wall-clock *)
  restart_ms : float list;  (** per-restart latency, detection to respawn *)
}

val run :
  ?seed:int ->
  ?initial:Moo.Solution.t list ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?keep_checkpoints:int ->
  ?resume:string ->
  ?observer:(Pmo2.Archipelago.epoch_record -> unit) ->
  ?config:config ->
  generations:int ->
  Moo.Problem.t ->
  Pmo2.Archipelago.config ->
  Pmo2.Archipelago.result * stats
(** Sharded equivalent of {!Pmo2.Archipelago.run}: same optional
    arguments, same semantics, same result — plus the supervision
    {!stats}.  Raises [Invalid_argument] on a malformed config.

    Observability spans the process tree: workers ship their spans and
    metric deltas inside committed phase replies (DESIGN §14), so
    [--trace]/[--metrics] on a sharded run produce one merged trace
    (lane 0 = supervisor, lane [s+1] = shard [s]) and roll-ups equal to
    the in-process run's, exactly as committed — replayed epochs after a
    kill never double-count. *)
