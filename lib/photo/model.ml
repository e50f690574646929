type fluxes = {
  vc : float;
  vo : float;
  v_pgak : float;
  v_gapdh : float;
  v_fbpald : float;
  v_fbpase : float;
  v_tk1 : float;
  v_tk2 : float;
  v_sbald : float;
  v_sbpase : float;
  v_prk : float;
  v_adpgpp : float;
  v_pgcapase : float;
  v_goaox : float;
  v_ggat : float;
  v_gsat : float;
  v_gdc : float;
  v_hprred : float;
  v_gceak : float;
  v_export : float;
  v_cald : float;
  v_cfbpase : float;
  v_udpgp : float;
  v_sps : float;
  v_spp : float;
  v_f26bpase : float;
  v_f2k : float;
  v_serleak : float;  (* serine drain to amino-acid metabolism *)
  v_stdeg : float;    (* starch phosphorylase (re-seeding influx) *)
  v_g6pdh : float;    (* oxidative pentose-phosphate shunt *)
  v_scav_hp : float;  (* Pi-starvation phosphatase on hexose-P *)
  v_scav_tp : float;  (* Pi-starvation phosphatase on triose-P *)
  v_scav_pp : float;  (* Pi-starvation phosphatase on pentose-P *)
  v_light : float;
  pi : float;
}

(* [Float.max 0. s], bit for bit (a NaN passes through, −0. becomes
   +0.), but inlined: the stdlib version calls out for the sign bit and
   boxes its result, dozens of times per rhs call. *)
let[@inline] pos s = if s > 0. then s else if Float.is_nan s then s else 0.

(* Saturation term, guarded against (numerically) negative pools. *)
let[@inline] mm s km = let s = pos s in s /. (s +. km)

(* Slots of the rate buffer, in the order of the [fluxes] fields. *)
module R = struct
  let vc = 0
  let vo = 1
  let v_pgak = 2
  let v_gapdh = 3
  let v_fbpald = 4
  let v_fbpase = 5
  let v_tk1 = 6
  let v_tk2 = 7
  let v_sbald = 8
  let v_sbpase = 9
  let v_prk = 10
  let v_adpgpp = 11
  let v_pgcapase = 12
  let v_goaox = 13
  let v_ggat = 14
  let v_gsat = 15
  let v_gdc = 16
  let v_hprred = 17
  let v_gceak = 18
  let v_export = 19
  let v_cald = 20
  let v_cfbpase = 21
  let v_udpgp = 22
  let v_sps = 23
  let v_spp = 24
  let v_f26bpase = 25
  let v_f2k = 26
  let v_serleak = 27
  let v_stdeg = 28
  let v_g6pdh = 29
  let v_scav_hp = 30
  let v_scav_tp = 31
  let v_scav_pp = 32
  let v_light = 33
  let pi = 34
  let count = 35
end

(* Unchecked access to the rate buffer, which has [R.count] slots indexed
   by [R] constants, and to a checked [vmax], indexed by [Enzyme.idx_*]. *)
let[@inline] get (b : float array) slot = Array.unsafe_get b slot
let[@inline] set (b : float array) slot x = Array.unsafe_set b slot x

let check_vmax name vmax =
  if Array.length vmax <> Enzyme.count then invalid_arg (name ^ ": one vmax per enzyme")

(* The rate laws: every rate at [y], written into [b] by its {!R} slot.
   Callers have checked [vmax] with {!check_vmax}. *)
let rates (k : Params.kinetics) (env : Params.env) ~vmax y (b : float array) =
  let v i = get vmax i in
  let pi = State.stromal_pi k y in
  let atp = pos y.(State.atp) in
  let adp = pos (k.adenylate_total -. atp) in
  let gap = k.frac_gap *. y.(State.tp) in
  let dhap = k.frac_dhap *. y.(State.tp) in
  let f6p = k.frac_f6p *. y.(State.hp) in
  let g1p = k.frac_g1p *. y.(State.hp) in
  let ru5p = k.frac_ru5p *. y.(State.pp) in
  let gapc = k.frac_gap *. y.(State.tpc) in
  let dhapc = k.frac_dhap *. y.(State.tpc) in
  let f6pc = k.frac_f6p *. y.(State.hpc) in
  let g1pc = k.frac_g1p *. y.(State.hpc) in
  (* Rubisco: CO2 saturation in ppm units with O2 competition folded into
     kc_eff; oxygenation keyed to the compensation point. *)
  let vc =
    v Enzyme.idx_rubisco *. (env.ci /. (env.ci +. k.kc_eff)) *. mm y.(State.rubp) k.km_rubp
  in
  let vo = 2. *. k.gamma_star /. env.ci *. vc in
  let v_pgak =
    v Enzyme.idx_pga_kinase *. mm y.(State.pga) k.km_pga_pgak *. mm atp k.km_atp_pgak
  in
  let v_gapdh = v Enzyme.idx_gapdh *. mm y.(State.dpga) k.km_dpga in
  let v_fbpald = v Enzyme.idx_fbp_aldolase *. mm gap k.km_gap_ald *. mm dhap k.km_dhap_ald in
  let v_fbpase =
    v Enzyme.idx_fbpase
    *. (pos y.(State.fbp) /. (y.(State.fbp) +. (k.km_fbp *. (1. +. (f6p /. k.ki_f6p_fbpase)))))
  in
  let v_tk1 = v Enzyme.idx_transketolase *. mm f6p k.km_f6p_tk *. mm gap k.km_gap_tk in
  let v_tk2 = v Enzyme.idx_transketolase *. mm y.(State.s7p) k.km_s7p_tk *. mm gap k.km_gap_tk in
  let v_sbald = v Enzyme.idx_aldolase *. mm dhap k.km_dhap_sbald *. mm y.(State.e4p) k.km_e4p_sbald in
  let v_sbpase =
    v Enzyme.idx_sbpase
    *. (pos y.(State.sbp)
        /. (y.(State.sbp) +. (k.km_sbp *. (1. +. (pi /. k.ki_pi_sbpase)))))
  in
  let v_prk =
    v Enzyme.idx_prk
    *. (ru5p /. (ru5p +. (k.km_ru5p *. (1. +. (y.(State.pga) /. k.ki_pga_prk)))))
    *. mm atp k.km_atp_prk
  in
  let adpgpp_activation =
    let r = y.(State.pga) /. pi in
    r /. (r +. k.ka_adpgpp)
  in
  let v_adpgpp =
    v Enzyme.idx_adpgpp *. mm g1p k.km_g1p_adpgpp *. mm atp k.km_atp_adpgpp
    *. adpgpp_activation
  in
  let v_pgcapase = v Enzyme.idx_pgcapase *. mm y.(State.pgca) k.km_pgca in
  let v_goaox = v Enzyme.idx_goa_oxidase *. mm y.(State.gca) k.km_gca in
  let v_ggat = v Enzyme.idx_ggat *. mm y.(State.goa) k.km_goa_ggat in
  let v_gsat =
    v Enzyme.idx_gsat *. mm y.(State.goa) k.km_goa_gsat *. mm y.(State.ser) k.km_ser_gsat
  in
  let v_gdc = v Enzyme.idx_gdc *. mm y.(State.gly) k.km_gly_gdc in
  let v_hprred = v Enzyme.idx_hpr_reductase *. mm y.(State.hpr) k.km_hpr in
  let v_gceak =
    v Enzyme.idx_gcea_kinase *. mm y.(State.gcea) k.km_gcea *. mm atp k.km_atp_gceak
  in
  (* Translocator: not one of the 23 decision enzymes — its capacity is an
     environmental condition; cytosolic triose-P accumulation exerts
     back-pressure. *)
  let v_export =
    (* Sigmoidal (Hill-2) saturation: the antiporter only runs once the
       stromal triose-P pool is charged, and cytosolic accumulation exerts
       back-pressure.  This reflects the Pi-exchange coupling of the real
       translocator and keeps the autocatalytic cycle from being drained
       through a linear low-TP leak. *)
    let t = pos y.(State.tp) in
    env.tp_export
    *. (t *. t /. ((t *. t) +. (k.km_tp_export *. k.km_tp_export)))
    *. (k.ki_tpc_export /. (k.ki_tpc_export +. pos y.(State.tpc)))
  in
  let v_cald =
    v Enzyme.idx_cyt_fbp_aldolase *. mm gapc k.km_gap_cald *. mm dhapc k.km_dhap_cald
  in
  let v_cfbpase =
    v Enzyme.idx_cyt_fbpase
    *. (pos y.(State.fbpc)
        /. (y.(State.fbpc) +. (k.km_fbp_cyt *. (1. +. (y.(State.f26bp) /. k.ki_f26bp)))))
  in
  let v_udpgp =
    (* Product inhibition keeps the near-equilibrium UDPGP step from
       accumulating UDP-glucose without bound when SPS lags. *)
    v Enzyme.idx_udpgp *. mm g1pc k.km_g1p_udpgp
    *. (k.ki_udpg /. (k.ki_udpg +. pos y.(State.udpg)))
  in
  let v_sps = v Enzyme.idx_sps *. mm f6pc k.km_f6p_sps *. mm y.(State.udpg) k.km_udpg_sps in
  let v_spp = v Enzyme.idx_spp *. mm y.(State.sucp) k.km_sucp in
  let v_f26bpase = v Enzyme.idx_f26bpase *. mm y.(State.f26bp) k.km_f26bp in
  let v_f2k = k.v_f2k *. mm f6pc k.km_f6p_f2k in
  let v_serleak = k.ser_leak *. pos y.(State.ser) in
  (* Starch remobilization and the oxidative pentose-phosphate shunt:
     small fixed background fluxes that keep the autocatalytic cycle
     re-seedable (the bare cycle has an absorbing extinct state). *)
  let v_stdeg = k.v_starch_deg *. mm pi 0.5 in
  let g6p = k.frac_g6p *. y.(State.hp) in
  let v_g6pdh = k.v_g6pdh *. mm g6p k.km_g6pdh in
  (* Pi-starvation safety valve: nonspecific phosphatase activity that
     liberates phosphate from the large sugar-phosphate pools when free Pi
     collapses, as vacuolar scavenging does in vivo.  Negligible at
     physiological Pi. *)
  let starvation = k.ki_scavenge /. (k.ki_scavenge +. pi) in
  let v_scav_hp = k.k_scavenge *. starvation *. pos y.(State.hp) in
  let v_scav_tp = k.k_scavenge *. starvation *. pos y.(State.tp) in
  let v_scav_pp = k.k_scavenge *. starvation *. pos y.(State.pp) in
  let v_light = k.v_light *. mm adp k.km_adp_light *. mm pi k.km_pi_light in
  set b R.vc vc;
  set b R.vo vo;
  set b R.v_pgak v_pgak;
  set b R.v_gapdh v_gapdh;
  set b R.v_fbpald v_fbpald;
  set b R.v_fbpase v_fbpase;
  set b R.v_tk1 v_tk1;
  set b R.v_tk2 v_tk2;
  set b R.v_sbald v_sbald;
  set b R.v_sbpase v_sbpase;
  set b R.v_prk v_prk;
  set b R.v_adpgpp v_adpgpp;
  set b R.v_pgcapase v_pgcapase;
  set b R.v_goaox v_goaox;
  set b R.v_ggat v_ggat;
  set b R.v_gsat v_gsat;
  set b R.v_gdc v_gdc;
  set b R.v_hprred v_hprred;
  set b R.v_gceak v_gceak;
  set b R.v_export v_export;
  set b R.v_cald v_cald;
  set b R.v_cfbpase v_cfbpase;
  set b R.v_udpgp v_udpgp;
  set b R.v_sps v_sps;
  set b R.v_spp v_spp;
  set b R.v_f26bpase v_f26bpase;
  set b R.v_f2k v_f2k;
  set b R.v_serleak v_serleak;
  set b R.v_stdeg v_stdeg;
  set b R.v_g6pdh v_g6pdh;
  set b R.v_scav_hp v_scav_hp;
  set b R.v_scav_tp v_scav_tp;
  set b R.v_scav_pp v_scav_pp;
  set b R.v_light v_light;
  set b R.pi pi

let fluxes k env ~vmax y =
  check_vmax "Photo.Model.fluxes" vmax;
  let b = Array.create_float R.count in
  rates k env ~vmax y b;
  {
    vc = get b R.vc; vo = get b R.vo; v_pgak = get b R.v_pgak; v_gapdh = get b R.v_gapdh;
    v_fbpald = get b R.v_fbpald; v_fbpase = get b R.v_fbpase; v_tk1 = get b R.v_tk1;
    v_tk2 = get b R.v_tk2; v_sbald = get b R.v_sbald; v_sbpase = get b R.v_sbpase;
    v_prk = get b R.v_prk; v_adpgpp = get b R.v_adpgpp; v_pgcapase = get b R.v_pgcapase;
    v_goaox = get b R.v_goaox; v_ggat = get b R.v_ggat; v_gsat = get b R.v_gsat;
    v_gdc = get b R.v_gdc; v_hprred = get b R.v_hprred; v_gceak = get b R.v_gceak;
    v_export = get b R.v_export; v_cald = get b R.v_cald; v_cfbpase = get b R.v_cfbpase;
    v_udpgp = get b R.v_udpgp; v_sps = get b R.v_sps; v_spp = get b R.v_spp;
    v_f26bpase = get b R.v_f26bpase; v_f2k = get b R.v_f2k; v_serleak = get b R.v_serleak;
    v_stdeg = get b R.v_stdeg; v_g6pdh = get b R.v_g6pdh; v_scav_hp = get b R.v_scav_hp;
    v_scav_tp = get b R.v_scav_tp; v_scav_pp = get b R.v_scav_pp; v_light = get b R.v_light;
    pi = get b R.pi;
  }

(* The closure owns one rate buffer, so it is not re-entrant: the
   solvers call it from one domain, one stage at a time. *)
let rhs k env ~vmax =
  check_vmax "Photo.Model.rhs" vmax;
  let b = Array.create_float R.count in
  fun _t y dy ->
    rates k env ~vmax y b;
    let open R in
    dy.(State.rubp) <- get b v_prk -. get b vc -. get b vo;
    dy.(State.pga) <- (2. *. get b vc) +. get b vo +. get b v_gceak -. get b v_pgak;
    dy.(State.dpga) <- get b v_pgak -. get b v_gapdh;
    dy.(State.tp) <-
      get b v_gapdh -. (2. *. get b v_fbpald) -. get b v_tk1 -. get b v_tk2 -. get b v_sbald
      -. get b v_export -. get b v_scav_tp;
    dy.(State.fbp) <- get b v_fbpald -. get b v_fbpase;
    dy.(State.hp) <-
      get b v_fbpase +. get b v_stdeg -. get b v_tk1 -. get b v_adpgpp -. get b v_g6pdh
      -. get b v_scav_hp;
    dy.(State.e4p) <- get b v_tk1 -. get b v_sbald;
    dy.(State.sbp) <- get b v_sbald -. get b v_sbpase;
    dy.(State.s7p) <- get b v_sbpase -. get b v_tk2;
    dy.(State.pp) <-
      get b v_tk1 +. (2. *. get b v_tk2) +. get b v_g6pdh -. get b v_prk -. get b v_scav_pp;
    dy.(State.atp) <-
      get b v_light -. get b v_pgak -. get b v_prk -. get b v_adpgpp -. get b v_gceak;
    dy.(State.pgca) <- get b vo -. get b v_pgcapase;
    dy.(State.gca) <- get b v_pgcapase -. get b v_goaox;
    dy.(State.goa) <- get b v_goaox -. get b v_ggat -. get b v_gsat;
    dy.(State.gly) <- get b v_ggat +. get b v_gsat -. (2. *. get b v_gdc);
    dy.(State.ser) <- get b v_gdc -. get b v_gsat -. get b v_serleak;
    dy.(State.hpr) <- get b v_gsat -. get b v_hprred;
    dy.(State.gcea) <- get b v_hprred -. get b v_gceak;
    dy.(State.tpc) <- get b v_export -. (2. *. get b v_cald);
    dy.(State.fbpc) <- get b v_cald -. get b v_cfbpase;
    dy.(State.hpc) <- get b v_cfbpase -. get b v_udpgp -. get b v_sps;
    dy.(State.udpg) <- get b v_udpgp -. get b v_sps;
    dy.(State.sucp) <- get b v_sps -. get b v_spp;
    dy.(State.f26bp) <- get b v_f2k -. get b v_f26bpase

(* Every rate law passes a NaN through — [pos], [mm] and the Pi clamp
   return it, and IEEE arithmetic propagates it — so the derivatives a
   NaN in state j turns NaN are exactly those whose computation reads
   state j.  That dataflow does not depend on the parameters, so one
   probe at the natural leaf serves every kinetics, condition and vmax. *)
let derive_pattern () =
  let env = Params.present ~tp_export:Params.low_export in
  let f = rhs Params.default env ~vmax:(Enzyme.natural_vmax ()) in
  let y = State.initial () and dy = Array.make State.n 0. in
  Numerics.Ode.pattern
    (Array.init State.n (fun j ->
         let yj = y.(j) in
         y.(j) <- Float.nan;
         f 0. y dy;
         y.(j) <- yj;
         Array.of_list (List.filter (fun i -> Float.is_nan dy.(i)) (List.init State.n Fun.id))))

(* Derived on first use.  Two domains may both derive it; they get the
   same pattern, and the last store wins. *)
let pattern_cache = Atomic.make None

let pattern () =
  match Atomic.get pattern_cache with
  | Some p -> p
  | None ->
    let p = derive_pattern () in
    Atomic.set pattern_cache (Some p);
    p

let assimilation (k : Params.kinetics) f =
  (f.vc -. f.v_gdc -. k.day_respiration) *. k.flux_to_uptake
