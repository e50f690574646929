(** Memoized optimization runs shared by the experiments.

    Several tables/figures read the same Pareto fronts; this module runs
    PMO2 once per (environment, scale) and caches the full run summary
    for the lifetime of the process.  The memo tables are mutex-protected
    so experiments may be generated from parallel domains. *)

type summary = {
  front : Moo.Solution.t list;   (** merged non-dominated front *)
  evaluations : int;             (** objective evaluations spent *)
  island_crashes : int;          (** crashes absorbed by the supervisor *)
  guard : Runtime.Guard.stats array;  (** per-island guard telemetry *)
}

val leaf_summary : env:Photo.Params.env -> summary
(** PMO2 run of the leaf-design problem under [env] at the current scale
    (memoized), with its fault telemetry. *)

val leaf_front : env:Photo.Params.env -> Moo.Solution.t list
(** [(leaf_summary ~env).front]. *)

val leaf_front_with_evals : env:Photo.Params.env -> Moo.Solution.t list * int
(** Front plus the number of objective evaluations spent producing it. *)

val pp_faults : Format.formatter -> summary -> unit
(** One-line fault digest: island crashes plus any island whose guard
    penalized evaluations ("no faults" when the run was clean). *)

val uptake_property : env:Photo.Params.env -> float array -> float
(** CO2 uptake of an enzyme-ratio vector (the robustness property),
    relaxed from the natural leaf and scored by
    {!Photo.Steady_state.uptake_score}: 0 when no steady state was
    reached. *)
