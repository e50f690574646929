(** Metabolic control analysis on the leaf model.

    The flux control coefficient of enzyme i on the net assimilation A is
    C_i = (dA/A) / (dE_i/E_i), estimated by central finite differences on
    the steady state.  The paper's claim — Rubisco, SBPase, ADPGPP and
    FBP aldolase are the most influential enzymes of carbon metabolism —
    is a statement about this ranking at the natural operating point. *)

type coefficient = {
  enzyme : int;        (** index into {!Enzyme.all} *)
  name : string;
  control : float;     (** C_i *)
}

val flux_control : env:Params.env -> ratios:float array -> coefficient array
(** Control coefficients of all 23 enzymes at the design [ratios], by
    central differences with a relative step of 5 %.  The result is in
    enzyme order (not ranked). *)

val ranking : coefficient array -> coefficient list
(** Sorted by decreasing |C_i|. *)

val summation : coefficient array -> float
(** Σ C_i — close to 1 at interior operating points (the flux-control
    summation theorem; boundary effects and the model's fixed background
    fluxes bend it slightly). *)
