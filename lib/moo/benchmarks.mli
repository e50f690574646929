(** ZDT1 (Zitzler, Deb & Thiele 2000), the multi-objective test problem
    the ablation studies, the benchmarks and the mixed-islands example
    run. *)

val zdt1 : n:int -> Problem.t
(** Convex front f2 = 1 − √f1 over [\[0, 1\]ⁿ]. *)
