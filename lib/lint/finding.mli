(** Lint findings: a rule violation anchored to a source location.

    The rule set is specific to this codebase's determinism and
    numerical-safety conventions (see README "Static analysis"):

    - R1: polymorphic [=]/[<>]/[compare] at a float-containing type
      (both per-occurrence and interprocedurally, through ['a]-generic
      helpers instantiated at float)
    - R2: [Stdlib.Random] (only [Numerics.Rng] is deterministic)
    - R3: [Marshal] outside [Runtime.Checkpoint]
    - R4: exception-swallowing catch-all outside [Runtime.Guard]
    - R5: [assert] in library code (must be [invalid_arg])
    - R6: module-toplevel mutable state in library code
    - R7: [Hashtbl.iter]/[fold] (unspecified iteration order)
    - R8: raw [Domain.spawn] outside [Parallel.Pool]
    - R9: raw process control ([fork]/[create_process]/[exit]) outside [Shard]
    - R10: lock discipline — mutex-guarded mutable state accessed off the
      lock, double acquisition, lock-order cycles
    - R11: wall-clock reads outside [Obs.Clock] and [lib/shard]
    - R12: a value a [lib/] interface declares that no other compilation
      unit outside [test/] references *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11 | R12

val rule_id : rule -> string
(** ["R1"] .. ["R12"]. *)

val rule_of_id : string -> rule option

type t = {
  rule : rule;
  file : string;  (** path as recorded by the compiler, relative to the build root *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based *)
  message : string;
}

val compare_by_loc : t -> t -> int
(** Order by (file, line, col, rule, message) for stable reports. *)

val pp : Format.formatter -> t -> unit
