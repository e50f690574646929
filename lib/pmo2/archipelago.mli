(** PMO2: Parallel Multi-Objective Optimization by an archipelago of
    islands exchanging non-dominated candidates.

    The paper's reference configuration is two NSGA-II islands exchanging
    solutions every 200 generations with an all-to-all (broadcast) scheme
    at migration probability 0.5; {!default_config} reproduces it.  The
    framework also "encloses two optimization algorithms": islands may run
    NSGA-II or SPEA2 (see [algorithms]). *)

type algorithm =
  | Nsga2 of Ea.Nsga2.config
  | Spea2 of Ea.Spea2.config

type config = {
  n_islands : int;
  migration_period : int;  (** generations between exchanges *)
  migration_prob : float;  (** probability each edge fires at an epoch *)
  migrants : int;          (** emigrants offered per firing edge *)
  topology : Topology.t;
  nsga2 : Ea.Nsga2.config; (** algorithm for every island when [algorithms = []] *)
  algorithms : algorithm list;
      (** per-island algorithm assignments, cycled when shorter than
          [n_islands]; empty = all islands run NSGA-II with [nsga2] *)
  parallel : bool;
      (** evolve islands on the process-wide persistent domain pool
          ({!Parallel.Pool.get}) between migrations — the paper's
          coarse-grained parallelism without a domain spawn/join per
          epoch; identical results to the sequential schedule, since
          islands only interact at epochs and each pool submission is a
          barrier.  Requires the problem's [eval] to be safe to call
          from multiple domains — every problem in this library is. *)
  guard_penalty : float option;
      (** [Some p] wraps every island's copy of the problem in its own
          {!Runtime.Guard} with penalty [p], so crashing or non-finite
          evaluations are absorbed per island and counted in the
          telemetry ({!island_guard_stats}, [result.guard_stats]).
          [None] (the default) evaluates the problem as given. *)
  cache_size : int option;
      (** [Some n] gives every island its own [n]-entry LRU memo of
          genotype → solution (see {!Cache.Memo}): bit-identical
          offspring — clones surviving variation unchanged, or
          re-encounters of recent candidates — replay their cached
          solution instead of re-evaluating.  Fronts are bit-identical
          to [None] at any domain count; only evaluation work changes
          ({!island_cache_stats}, [result.cache_stats]).  The memo is
          never checkpointed: a resumed run starts cold.  [None] (the
          default) disables memoization.  Raises [Invalid_argument] in
          {!init} when [n < 1]. *)
}

val default_config : config

type state

val init : ?seed:int -> ?initial:Moo.Solution.t list -> Moo.Problem.t -> config -> state
(** [initial] seeds part of every island's starting population.  Raises
    [Invalid_argument] on a malformed config (so validation survives
    [-noassert] release builds). *)

val step_epoch : state -> unit
(** Run one migration epoch: draw every edge's migration decision, run
    {!step_islands}, then merge the island fronts into the archive.

    Epochs are supervised: each island is snapshotted before the epoch,
    and an island whose step raises (a crashing objective, a solver
    failure that escaped its guard) is caught, logged on the
    ["pmo2.archipelago"] log source, rolled back to its snapshot and
    retried sequentially; a second failure rolls back again and skips
    the island for this epoch.  A crash
    therefore degrades one island's progress instead of killing the run,
    in both parallel and sequential schedules. *)

val islands_fronts : state -> Moo.Solution.t list list
val island_names : state -> string list
val archive : state -> Moo.Archive.t
val generations_done : state -> int

val island_guard_stats : state -> Runtime.Guard.stats array
(** Per-island guard telemetry, in island order.  Empty when the config
    has [guard_penalty = None]. *)

val island_cache_stats : state -> Cache.Memo.stats array
(** Per-island memo telemetry, in island order.  Empty when the config
    has [cache_size = None]. *)

(** {2 Sharding support}

    Hooks for the multi-process runner ([Shard.Supervisor]), which keeps
    a canonical state, forks workers that inherit island copies, and
    supplies the island phase of {!run_with}'s epochs.  Not useful to
    in-process callers. *)

val islands : state -> Island.t array
(** The live islands, in island order.  Mutating them outside the
    {!step_epoch} discipline forfeits determinism. *)

val supervised_step : ?label:string -> Island.t -> period:int -> int
(** One island's supervised epoch step: snapshot, step [period]
    generations, and on a crash roll back and retry once sequentially —
    a second crash rolls back again and skips the epoch.  Returns the
    number of crashes absorbed (0–2); [label] names the island in log
    messages.  This is exactly the per-island policy {!step_islands}
    applies, exported so worker processes degrade identically. *)

val step_islands : state -> epoch:int -> fire:(int * int) list -> int
(** The in-process island phase: step every island one period under the
    supervised policy, then move the emigrants of each firing
    [(src, dst)] edge into [dst], in [fire] order.  Returns the island
    crashes absorbed; ignores the 1-based [epoch]. *)

val set_island_guard_stats : state -> (int * Runtime.Guard.stats) list -> unit
(** Overwrite chosen islands' guard counters with worker-reported values;
    indices outside the guard array are ignored (telemetry off). *)

(** {2 Per-epoch observation}

    The observability hook behind the paper's quality-over-effort curves
    (hypervolume Vp vs. generations, Fig. 1): {!run} builds one
    [epoch_record] after every migration epoch and hands it to
    [?observer].  Records are deterministic for a given seed — the
    hypervolume reference point is fixed once from the first observed
    front (componentwise worst + 10% span margin), never re-fitted, so
    the per-epoch series is comparable within a run.  When {!Obs.Metrics} is enabled the same values are
    published as [arch.*] gauges even without an observer. *)

type epoch_record = {
  er_epoch : int;             (** 1-based epoch index *)
  er_generations : int;       (** generations completed per island *)
  er_evaluations : int array; (** cumulative evaluations, per island *)
  er_archive_size : int;
  er_hv_ref : float array;    (** the fixed reference point ([[||]] until known) *)
  er_hypervolume : float;     (** archive-front hypervolume; [nan] until a front exists *)
  er_migrations : int;        (** edges that delivered migrants this epoch *)
  er_failures : int;          (** cumulative island crashes absorbed *)
  er_guards : Runtime.Guard.stats array;  (** per-island fault counters *)
}

val jsonl_observer : out_channel -> epoch_record -> unit
(** An [?observer] for {!run} that publishes the record's [arch.*] gauges
    and appends one {!Obs.Metrics} snapshot line (labelled ["epoch N"])
    to the channel — the [--metrics FILE.jsonl] stream of the CLI. *)

(** {2 Checkpointing}

    A checkpoint captures everything the run needs to continue
    bit-for-bit: every island's population (and archive, for SPEA2),
    evaluation/generation counters, all RNG stream states, the merged
    archive in insertion order, the supervisor's failure count and the
    per-island guard counters.  The file is one atomic, CRC-checked
    {!Runtime.Checkpoint} frame under the magic
    ["robustpath-archipelago-checkpoint v3"] holding a marshalled
    pure-data snapshot.  A file written under another magic (an older
    format) is refused as {!Runtime.Checkpoint.Corrupt}: a resume is
    bit-identical only under the code that wrote it.  The problem and
    config are {e not} stored — a resume must supply the same ones it was
    saved under: {!run}'s [~resume] raises {!Runtime.Checkpoint.Corrupt}
    on an unreadable, corrupted or foreign-magic file and
    [Invalid_argument] when the checkpoint does not match the supplied
    problem/config (different problem name, island count or
    algorithms). *)

type result = {
  front : Moo.Solution.t list;        (** merged non-dominated front *)
  per_island : Moo.Solution.t list list;
  evaluations : int;
  failures : int;  (** island crashes absorbed by the supervisor *)
  guard_stats : Runtime.Guard.stats array;
      (** per-island guard telemetry; empty when [guard_penalty = None] *)
  cache_stats : Cache.Memo.stats array;
      (** per-island memo telemetry; empty when [cache_size = None] *)
}

val run :
  ?seed:int ->
  ?initial:Moo.Solution.t list ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?keep_checkpoints:int ->
  ?resume:string ->
  ?observer:(epoch_record -> unit) ->
  generations:int ->
  Moo.Problem.t ->
  config ->
  result
(** Run for (at least) [generations] generations per island, migrating
    every [migration_period] generations.

    With [checkpoint], the state is saved to that path every
    [checkpoint_every] epochs (default 1) and after the final epoch.  With
    [resume], the run continues from the given checkpoint instead of
    initializing — completed epochs are skipped and the result is
    bit-identical to the uninterrupted run with the same seed, problem and
    config.

    With [keep_checkpoints = Some k], each save goes to a numbered
    history file ({!Runtime.Checkpoint.numbered}[ path epoch]) and only
    the [k] newest survive ({!Runtime.Checkpoint.prune}); resume from the
    newest.  Raises [Invalid_argument] when [k < 1].

    [observer] is called with an [epoch_record] after every epoch. *)

val run_with :
  islands:(state -> epoch:int -> fire:(int * int) list -> int) ->
  ?seed:int ->
  ?initial:Moo.Solution.t list ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?keep_checkpoints:int ->
  ?resume:string ->
  ?observer:(epoch_record -> unit) ->
  generations:int ->
  Moo.Problem.t ->
  config ->
  result
(** {!run} is [run_with ~islands:step_islands].  [islands] is applied
    once, to the state after init or resume; every epoch then calls the
    phase it returns instead of {!step_islands}, which it must match
    island for island.  The sharded runner forks its workers there. *)

(** {2 Checkpoint inspection} *)

type island_info = {
  info_algo : string;
  info_evaluations : int;
  info_generation : int;
}

type info = {
  info_problem : string;
  info_period : int;
  info_islands : island_info array;
  info_generations : int;
  info_archive_size : int;
  info_failures : int;
  info_guards : Runtime.Guard.stats array;  (** empty when the run had no guards *)
}

val inspect : string -> info
(** Read a checkpoint's metadata without rebuilding a runnable state (no
    problem or config needed).  Raises {!Runtime.Checkpoint.Corrupt} on a
    missing, truncated, corrupted or foreign-magic file. *)

val pp_info : Format.formatter -> info -> unit
