(** Shard worker body, run inside a process forked by
    {!Supervisor}.

    The worker inherits the supervisor's canonical archipelago state via
    [fork] — nothing is shipped at spawn — and serves the {!Wire}
    protocol over its two pipes: for each {!Wire.step} it applies the
    deliveries the step carries to the islands in [local], steps exactly
    those islands, selects emigrants for firing edges it owns in global
    edge order, and sends one {!Wire.stepped} reply.  Returns when the
    supervisor closes its request pipe; the caller is expected to
    [Unix._exit] immediately after, never to resume the supervisor's
    stack. *)

val run :
  state:Pmo2.Archipelago.state ->
  shard:int ->
  incarnation:int ->
  local:int list ->
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
