(** Cross-validation against the substrate paper (Zhu, de Sturler & Long
    2007): re-partitioning enzyme nitrogen at the {e fixed} natural total
    should substantially raise CO2 uptake (Zhu reported ~+60%; the DAC'11
    paper builds its two-objective formulation on this result). *)

val print : unit -> unit
