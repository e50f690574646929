(** Metabolite state vector layout of the kinetic model.

    Fast equilibrium pools are lumped (as in the source model): the
    triose-P pool (GAP + DHAP), the pentose-P pool (X5P + R5P + Ru5P) and
    the hexose-P pool (F6P + G6P + G1P) each occupy one state; fixed
    equilibrium fractions split them inside the rate laws. *)

(* Number of states (24). *)
val n : int

(* Stromal Calvin-cycle pools *)
val rubp : int
val pga : int
val dpga : int
(* triose-P: GAP + DHAP *)
val tp : int
val fbp : int
val e4p : int
val sbp : int
val s7p : int
(* pentose-P: X5P + R5P + Ru5P *)
val pp : int
(* hexose-P: F6P + G6P + G1P *)
val hp : int
val atp : int

(* Photorespiratory pools *)
val pgca : int
val gca : int
val goa : int
val gly : int
val ser : int
val hpr : int
val gcea : int

(* Cytosolic pools *)
val tpc : int
val fbpc : int
val hpc : int
val udpg : int
val sucp : int
val f26bp : int

val initial : unit -> float array
(** A physiological initial condition (mM), fresh copy. *)

(* robustlint: allow R12 — test_photo's "phosphate conservation" case weighs dy by it *)
val phosphate_groups : float array
(** Per-state number of phosphate groups counted by the stromal phosphate
    conservation.  Only the first 12 states, {!rubp} to {!pgca}, carry
    any; the photorespiratory pools after PGCA and the cytosolic states
    carry 0. *)

val stromal_pi : Params.kinetics -> float array -> float
(** Free stromal inorganic phosphate implied by conservation, clamped at
    0.01 ([Float.max 0.01], a NaN passing through).  It sums the first
    12 states only, which gives the bits of the full sum for any finite
    state and reads no other state, so Pi adds no entries to the rhs's
    Jacobian pattern beyond those 12 columns. *)
