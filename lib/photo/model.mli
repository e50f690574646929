(** The C3 carbon-metabolism rate equations.

    Every reaction obeys (irreversible) Michaelis–Menten kinetics with the
    activations/inhibitions of the source model: PRK is inhibited by PGA,
    stromal FBPase by F6P, SBPase by Pi, ADPGPP is activated by the PGA/Pi
    ratio, the cytosolic FBPase is inhibited by fructose-2,6-bisphosphate,
    and the triose-P translocator saturates against accumulated cytosolic
    triose-P.  Stromal phosphate and adenylate are conserved quantities. *)

type fluxes = {
  vc : float;          (** Rubisco carboxylation *)
  vo : float;          (** Rubisco oxygenation *)
  v_pgak : float;
  v_gapdh : float;
  v_fbpald : float;
  v_fbpase : float;
  v_tk1 : float;       (** F6P + GAP → E4P + X5P *)
  v_tk2 : float;       (** S7P + GAP → R5P + X5P *)
  v_sbald : float;
  v_sbpase : float;
  v_prk : float;
  v_adpgpp : float;    (** starch synthesis flux *)
  v_pgcapase : float;
  v_goaox : float;
  v_ggat : float;
  v_gsat : float;
  v_gdc : float;       (** in CO2-released units: consumes 2 GLY *)
  v_hprred : float;
  v_gceak : float;
  v_export : float;    (** triose-P translocator *)
  v_cald : float;
  v_cfbpase : float;
  v_udpgp : float;
  v_sps : float;
  v_spp : float;       (** sucrose release *)
  v_f26bpase : float;
  v_f2k : float;
  v_serleak : float;  (* serine drain to amino-acid metabolism *)
  v_stdeg : float;    (* starch phosphorylase (re-seeding influx) *)
  v_g6pdh : float;    (* oxidative pentose-phosphate shunt *)
  v_scav_hp : float;  (* Pi-starvation phosphatase on hexose-P *)
  v_scav_tp : float;  (* Pi-starvation phosphatase on triose-P *)
  v_scav_pp : float;  (* Pi-starvation phosphatase on pentose-P *)
  v_light : float;     (** photophosphorylation *)
  pi : float;          (** free stromal phosphate implied by conservation *)
}

val fluxes :
  Params.kinetics -> Params.env -> vmax:float array -> float array -> fluxes
(** Reaction rates at a given state. [vmax] has length {!Enzyme.count}. *)

val rhs : Params.kinetics -> Params.env -> vmax:float array -> Numerics.Ode.rhs
(** Time derivative of the 24-dimensional state, written in place into
    the solver's vector ({!Numerics.Ode.rhs}).  The rates are the ones
    {!fluxes} reports, computed by the same code into one float buffer
    that the returned closure owns: the closure allocates no record per
    call, and it is not re-entrant.  Build one per evaluation and use it
    from one domain, as [Steady_state.evaluate] and
    [Simulate.time_course] do.  Raises [Invalid_argument] unless [vmax]
    has length {!Enzyme.count}. *)

val pattern : unit -> Numerics.Ode.pattern
(** The structural sparsity of {!rhs}'s Jacobian, for every kinetics,
    condition and [vmax]: entry (i, j) is in it when derivative i turns
    NaN with state j set to NaN at the natural leaf's initial state.
    Every rate law passes a NaN through, so this is the rhs's dataflow.
    Derived on first use; 126 of the 576 entries, in 13 column groups. *)

val assimilation : Params.kinetics -> fluxes -> float
(** Instantaneous net CO2 assimilation, µmol m⁻² s⁻¹:
    [(vc − v_gdc − Rd) · flux_to_uptake]. *)
