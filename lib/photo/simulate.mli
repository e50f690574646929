(** Time-course simulation of the kinetic model (beyond steady states):
    sampled trajectories and the photosynthetic induction transient. *)

type sample = {
  t : float;
  state : float array;
  assimilation : float;  (** instantaneous net CO2 uptake, µmol m⁻² s⁻¹ *)
}

(* robustlint: allow R12 — test_photo's "time-course sampling" and "y0 length checked" cases *)
val time_course :
  ?kinetics:Params.kinetics ->
  ?y0:float array ->
  env:Params.env ->
  ratios:float array ->
  t_end:float ->
  dt_sample:float ->
  unit ->
  sample list
(** Integrate and record a sample every [dt_sample] seconds (includes
    t = 0), from [y0] (default {!State.initial}).  Raises
    [Invalid_argument] unless [t_end] and [dt_sample] are positive and
    [y0] has {!State.n} entries. *)

val induction :
  ?kinetics:Params.kinetics ->
  env:Params.env ->
  ratios:float array ->
  unit ->
  sample list
(** The induction transient: the dark-adapted leaf stepped into light,
    sampled every 10 s for 300 s.  Assimilation rises monotonically (after
    an initial lag) toward the steady-state rate. *)

val induction_half_time : sample list -> float
(** Time at which assimilation first reaches half of its final value. *)
