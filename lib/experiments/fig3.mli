(** Figure 3 — the photosynthetic Pareto-surface: robustness yield versus
    CO2 uptake and nitrogen consumption over an equally spaced sample of
    the Pareto front.  The paper's reading: the extreme (Pareto-relative
    minimum) points are unstable, while slightly backed-off solutions are
    markedly more reliable. *)

type point = {
  uptake : float;
  nitrogen : float;
  yield_pct : float;
}

val compute : unit -> point list

(* robustlint: allow R12 — @repro-check (test/repro_check.ml) pins Fig. 3's extremes-vs-interior row *)
val extremes_vs_interior : point list -> float * float
(** (mean yield of the two extreme points, best yield of the interior) —
    the quantitative form of the paper's observation. *)

val print : unit -> unit
