(** Flight recorder: an always-on, fixed-capacity ring of the last
    {!capacity} observability events per process.

    Span/Metrics answer "how did the run perform"; the ring answers "what
    was this process doing when it died".  It records unconditionally —
    there is no enabled flag — into a preallocated buffer, with a
    lock-free, allocation-free record path (one atomic fetch-and-add, a
    coarse clock read and a few word stores; the [ring-record] bench
    kernel bounds it at 50 ns).

    {!attach} redirects recording into a memory-mapped sidecar file:
    every event is written straight through the mapping, so the entries
    live in the kernel page cache and survive a SIGKILL — the one signal
    no process can handle — without any dump-on-exit step.  The shard
    supervisor attaches one file per worker incarnation; after a kill
    the file is the post-mortem, rendered by [robustpath inspect].

    Event names are interned by {!probe} into a fixed table stored in
    the file header; events carry a 1-byte probe id.  {!read} is
    deliberately paranoid: a SIGKILL can tear an entry mid-store, so
    only entries passing sanity checks survive, ordered by sequence
    number. *)

type kind =
  | Enter  (** span opened; value = span id *)
  | Leave  (** span closed; value = span id *)
  | Fault  (** guard-absorbed failure; value = running failure count *)
  | Count  (** counter milestone; value = counter value *)
  | Mark   (** lifecycle point (worker step/inject, kill); value = epoch etc. *)

(* robustlint: allow R12 — test_obs's "wraparound keeps last 256" and ring fuzz cases size by it *)
val capacity : int
(** Number of retained events (256); older events are overwritten. *)

type probe

val probe : string -> probe
(** Intern [name] (idempotent).  The table holds {!max_names} names;
    past that, new names share the last slot.  Not for hot paths — call
    once and reuse the probe. *)

(* robustlint: allow R12 — test_obs's ring fuzz case computes where the entries start *)
val max_names : int

val record : probe -> kind -> int -> unit
(** Record one event: lock-free, allocation-free, always on. *)

val attach : path:string -> lane:int -> unit
(** Record into a fresh memory-mapped file at [path] (truncates any
    existing file), tagged with the logical process [lane].  Previously
    interned probe names are carried over; the sequence restarts at 0. *)

val reset : unit -> unit
(** Back to a zeroed in-memory buffer (drops any mapping), sequence 0. *)

type entry = {
  e_seq : int;    (** global sequence number, monotonic per process *)
  e_t_ns : int;   (** coarse monotonic clock at record time
                      ({!Clock.coarse_now_ns}: ~4 ms resolution, so
                      neighbouring events often share a stamp; order
                      by [e_seq]) *)
  e_value : int;
  e_kind : kind;
  e_name : string;
}

type dump = { d_lane : int; d_entries : entry list }

val read : path:string -> dump
(** Decode a sidecar file written through {!attach} — including one left
    by a SIGKILLed process.  Raises [Invalid_argument] when [path] is
    not a flight-recorder file. *)

val is_ring_file : path:string -> bool
(** Cheap magic check, for dispatching [inspect] between checkpoint and
    ring files. *)

val pp : Format.formatter -> dump -> unit
(** Human-readable table: sequence, relative milliseconds, kind, probe
    name, value. *)
