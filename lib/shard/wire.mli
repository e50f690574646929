(** Supervisor/worker wire protocol for the sharded archipelago.

    Each message is a 4-byte big-endian length prefix followed by a
    {!Runtime.Checkpoint.Frame} (magic + version line, payload length,
    CRC-32, [Marshal] payload).  The framing makes worker death visible
    as data: a clean close at a frame boundary reads as {!Closed}, while
    a frame torn by a SIGKILL mid-write — at {e any} byte boundary —
    reads as {!Runtime.Checkpoint.Corrupt}, never as a misparse.

    The protocol has two messages: one {!step} request and one
    {!stepped} reply per worker per epoch.  A [step] carries the
    epoch's firing edges (the archipelago draws every migration
    decision, so the dedicated migration stream is consumed exactly as
    in-process) and the deliveries of the previous epoch's commit when
    the worker has not seen them; the worker injects those addressed to
    its islands, steps its islands and answers with post-step snapshots
    and the emigrants of firing edges whose source it owns, in global
    edge order.  Nothing else crosses the pipes: the supervisor tells a
    worker to leave by closing its request pipe, and judges it alive by
    whether its reply arrives before the deadline.

    A [stepped] reply optionally carries an {!Obs.Merge.flush} — the
    worker's drained trace spans and cumulative metric delta.  The
    supervisor absorbs a flush exactly when it commits the epoch it
    answered, so a killed worker's replayed epoch cannot double-count
    (DESIGN §14). *)

exception Closed
(** Peer closed the pipe at a frame boundary (clean EOF or EPIPE). *)

exception Timeout
(** The [deadline] passed while waiting for bytes — the wedged-peer
    signal that triggers hard preemption. *)

(* robustlint: allow R12 — test_shard's "versioned magic" case pins the wire version *)
val magic : string
(** ["robustpath-shard-wire v4"], built with
    {!Runtime.Checkpoint.versioned_magic} (v2 added the obs flush
    payloads, v3 moved deliveries into the request, v4 left one request
    and one reply: no heartbeats, no shutdown message). *)

type step = {
  epoch : int;
  period : int;
  fire : (int * int) list;  (** firing edges, in global edge order *)
  deliveries : (int * Moo.Solution.t list) list;
      (** [(dst, migrants)] of the previous commit, in global edge
          order; [[]] for a worker forked after that commit *)
}

type stepped = {
  sd_epoch : int;
  sd_snapshots : (int * Pmo2.Island.snapshot) list;
      (** post-step, before this epoch's deliveries *)
  sd_emigrants : ((int * int) * Moo.Solution.t list) list;
      (** fired edges with a locally-owned source, in global edge order *)
  sd_failures : int;  (** island crashes absorbed this epoch *)
  sd_guards : (int * Runtime.Guard.stats) list;
  sd_caches : (int * Cache.Memo.stats) list;
  sd_obs : Obs.Merge.flush option;
      (** worker observability flush; [None] when tracing and metrics
          are both disabled *)
}

val send_step : Unix.file_descr -> step -> unit
val send_stepped : Unix.file_descr -> stepped -> unit
(** Raise {!Closed} when the peer is gone (EPIPE). *)

val recv_step : Unix.file_descr -> step
(** Block for the next request; {!Closed} when the supervisor closed the
    pipe, which is how a worker is told to leave. *)

val recv_stepped : ?deadline:float -> Unix.file_descr -> stepped
(** Read one frame.  [deadline] is absolute ([Unix.gettimeofday] clock);
    raises {!Timeout} when it passes mid-read, {!Closed} on EOF at a
    frame boundary, {!Runtime.Checkpoint.Corrupt} on a torn or corrupted
    frame. *)

val to_bytes : 'a -> string
(** The exact bytes {!send_step} and {!send_stepped} write (length prefix + frame) — for
    tests that tear frames at chosen boundaries, and for the kill-fault
    path that leaks a torn prefix before dying. *)

val write_raw : Unix.file_descr -> string -> unit
(** Write raw bytes (no framing).  Raises {!Closed} on EPIPE. *)
