(** Process-level fault injection for the shard supervisor: a worker
    process that dies outright ({!Kill}) or keeps its pipe open while
    making no progress ({!Wedge}), which only SIGKILL-based hard
    preemption can clear.  The CLI's [--fault-kill-shard] spec names the
    shard, epoch, incarnations and mode. *)

type process_mode =
  | Kill   (** worker SIGKILLs itself mid-migration *)
  | Wedge  (** worker spins forever; supervisor must preempt on deadline *)

type process_fault = {
  pf_shard : int;   (** target shard index, [>= 0] *)
  pf_epoch : int;   (** 1-based epoch at which the fault fires *)
  pf_mode : process_mode;
  pf_times : int;   (** incarnations that fault before a clean run, [>= 1] *)
}

val should_fault :
  process_fault option -> shard:int -> epoch:int -> incarnation:int -> process_mode option
(** The fault decision for one (shard, epoch, incarnation): fires iff the
    shard and epoch match the spec and [incarnation < pf_times], so a
    supervised restart eventually proceeds cleanly.  Raises
    [Invalid_argument] on a malformed spec. *)

val parse_kill_spec : string -> process_fault
(** Parse a ["SHARD:EPOCH[:TIMES][:kill|wedge]"] CLI spec (defaults:
    once, kill).  Raises [Invalid_argument] on malformed input. *)
