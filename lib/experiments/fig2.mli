(** Figure 2 — enzyme-concentration ratios of the re-engineering candidate
    B against the natural leaf.

    B is mined from the Ci = 270 / low-export front as the least-nitrogen
    solution that still delivers the natural CO2 uptake (within 2.5%); the
    paper's B uses 47% of the natural protein-nitrogen.  A2 (≥ 110%
    uptake at minimum nitrogen) is mined the same way. *)

type candidate = {
  label : string;
  uptake : float;
  nitrogen : float;
  nitrogen_frac : float;  (** of the natural leaf *)
  ratios : float array;   (** 23 enzyme ratios to the natural leaf *)
}

val compute : unit -> candidate list
(** [B; A2] when minable from the current front. *)

val print : unit -> unit
