(** A synthetic Geobacter-sulfurreducens-class metabolic network.

    The genome-scale reconstruction the paper uses (Mahadevan et al. 2006,
    608 reactions) is not redistributable, so this module builds a
    deterministic synthetic network of the same scale and macro-
    architecture: acetate uptake feeding a TCA-like oxidative core,
    NADH/menaquinol electron transport terminating in an extracellular
    electron sink (the electron-production flux of Figure 4), a biomass
    reaction drawing precursors/ATP/reducing power, a fixed ATP
    maintenance flux of 0.45 mmol gDW⁻¹ h⁻¹ (the bound the paper
    highlights), and hundreds of closed-loop side modules providing the
    608-dimensional flux space and pathway redundancy.

    Stoichiometry is calibrated so the LP-optimal trade-off matches the
    paper's Figure 4 window: electron production ≈ 158–161 against biomass
    production ≈ 0.283–0.301 mmol gDW⁻¹ h⁻¹. *)

type model = {
  net : Network.t;
  ep : int;        (** electron-export reaction index (EP of Figure 4) *)
  bp : int;        (** biomass reaction index (BP of Figure 4) *)
  atpm : int;      (** ATP maintenance reaction (fixed at 0.45) *)
  ex_acetate : int;
}

val build : ?seed:int -> unit -> model
(** Deterministic build; [seed] (default 2011) varies only the decoy
    wiring, never the calibrated core. *)

val atp_maintenance : float
(** 0.45. *)
