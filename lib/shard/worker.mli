(** Shard worker body, run inside a process forked by
    {!Supervisor}.

    The worker inherits the supervisor's canonical archipelago state via
    [fork] — nothing is shipped at spawn — and serves the {!Wire}
    protocol over its two pipes: applying the deliveries a [Step]
    carries to the islands in [local], stepping exactly those islands
    (heartbeating after each), and selecting emigrants for firing edges
    it owns in global edge order.  Returns when told to shut down or when the supervisor's
    pipe closes; the caller is expected to [Unix._exit] immediately
    after, never to resume the supervisor's stack. *)

val run :
  state:Pmo2.Archipelago.state ->
  shard:int ->
  incarnation:int ->
  local:int list ->
  migrants:int ->
  fault:Runtime.Fault.process_fault option ->
  span_base:int ->
  ring_prefix:string option ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit
(** [shard]/[incarnation] feed {!Runtime.Fault.should_fault}: an armed
    process fault makes the matching incarnation SIGKILL itself
    mid-reply (torn frame on the pipe) or wedge forever (no bytes, open
    pipe) at the target epoch.

    [span_base] is the supervisor's span-id watermark for this lane:
    inherited trace/metric state is reset on entry and span ids restart
    there, so [(pid, id)] stays unique across worker incarnations.
    [ring_prefix], when set, re-attaches the flight recorder to
    [PREFIX.shardN.incM.ring] so a SIGKILL leaves a post-mortem. *)

val ring_path : prefix:string -> shard:int -> incarnation:int -> string
(** [PREFIX.shardN.incM.ring] — the flight-recorder sidecar file of one
    worker incarnation (shared with the supervisor's kill-path log
    message and the tests). *)
