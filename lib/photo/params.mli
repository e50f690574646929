(** Kinetic constants, conserved pools, and environmental conditions of the
    carbon-metabolism model. *)

type env = {
  label : string;
  ci : float;         (** intercellular CO2, µmol mol⁻¹ (ppm) *)
  tp_export : float;  (** triose-P translocator maximal rate, mM s⁻¹ *)
}

val present : tp_export:float -> env
(** Present day: Ci = 270.  [of_flags] also gives the paper's past
    (Ci = 165, 25 M years ago) and future (Ci = 490, end of century). *)

val low_export : float
(** 1 mmol l⁻¹ s⁻¹. *)

val high_export : float
(** 3 mmol l⁻¹ s⁻¹. *)

val of_flags : ci:int -> export:string -> env
(** The condition the CLI's [--ci] and [--export] flags name: [ci] is
    165, 270 or 490, and [export] is [low], [high] or a finite rate
    [>= 0].  Raises [Invalid_argument] on any other value. *)

val six_conditions : env list
(** The paper's six Ci × triose-P-export conditions (Figure 1). *)

type kinetics = {
  (* Rubisco *)
  kc_eff : float;       (** effective CO2 Michaelis constant, ppm *)
  gamma_star : float;   (** photorespiratory compensation point, ppm *)
  km_rubp : float;
  (* Calvin cycle *)
  km_pga_pgak : float;
  km_atp_pgak : float;
  km_dpga : float;
  km_gap_ald : float;
  km_dhap_ald : float;
  km_fbp : float;
  ki_f6p_fbpase : float;
  km_f6p_tk : float;
  km_gap_tk : float;
  km_s7p_tk : float;
  km_dhap_sbald : float;
  km_e4p_sbald : float;
  km_sbp : float;
  ki_pi_sbpase : float;
  km_ru5p : float;
  km_atp_prk : float;
  ki_pga_prk : float;
  km_g1p_adpgpp : float;
  km_atp_adpgpp : float;
  ka_adpgpp : float;    (** PGA/Pi activation constant *)
  (* Photorespiration *)
  km_pgca : float;
  km_gca : float;
  km_goa_ggat : float;
  km_goa_gsat : float;
  km_ser_gsat : float;
  km_gly_gdc : float;
  km_hpr : float;
  km_gcea : float;
  km_atp_gceak : float;
  (* Export and cytosol *)
  km_tp_export : float;
  ki_tpc_export : float;
  km_gap_cald : float;
  km_dhap_cald : float;
  km_fbp_cyt : float;
  ki_f26bp : float;
  km_g1p_udpgp : float;
  ki_udpg : float;  (** UDPG product inhibition of UDPGP *)
  km_f6p_sps : float;
  km_udpg_sps : float;
  km_sucp : float;
  km_f26bp : float;
  v_f2k : float;        (** fixed F6P-2-kinase rate (F26BP synthesis) *)
  km_f6p_f2k : float;
  (* Background fluxes that keep the autocatalytic cycle re-seedable *)
  v_starch_deg : float; (** starch phosphorylase influx into hexose-P, mM s⁻¹ *)
  v_g6pdh : float;      (** oxidative pentose-phosphate shunt Vmax, mM s⁻¹ *)
  km_g6pdh : float;
  k_scavenge : float;   (** sugar-phosphate phosphatase rate at Pi starvation, s⁻¹ *)
  ki_scavenge : float;  (** Pi level below which scavenging engages, mM *)
  (* Light reactions and conserved pools *)
  v_light : float;      (** photophosphorylation Vmax, mM s⁻¹ *)
  km_adp_light : float;
  km_pi_light : float;
  adenylate_total : float;
  phosphate_total : float;
  day_respiration : float;  (** mM s⁻¹ CO2-equivalent *)
  ser_leak : float;         (** first-order serine drain, s⁻¹ *)
  (* Lumped-pool equilibrium fractions *)
  frac_gap : float;    (** GAP share of the triose-P pool *)
  frac_dhap : float;
  frac_x5p : float;    (** pentose-P pool *)
  frac_r5p : float;
  frac_ru5p : float;
  frac_f6p : float;    (** hexose-P pool *)
  frac_g6p : float;
  frac_g1p : float;
  (* Reporting calibration *)
  flux_to_uptake : float;   (** µmol m⁻² s⁻¹ per mM s⁻¹ *)
  nitrogen_scale : float;   (** rescales Σ v·MW/kcat to the paper's units *)
}

val default : kinetics
