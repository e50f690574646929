(** Leaf temperature dependence (an extension beyond the paper, which
    works at 25 °C throughout).

    Catalytic capacities scale with a Q10 factor damped by high-
    temperature deactivation; the Rubisco CO2 Michaelis constant and the
    photorespiratory compensation point rise with temperature (so
    oxygenation gains on carboxylation as the leaf warms).  Together these
    produce the classic peaked A(T) response with an optimum in the
    high 20s °C. *)

(* robustlint: allow R12 — test_photo's "scale unity at 25C" and "scale shape" cases *)
val vmax_scale : float -> float
(** [vmax_scale t_c] — multiplicative enzyme-capacity factor at leaf
    temperature [t_c]; equals 1 at the 25 °C calibration temperature.  Q10 2.0, damped by a logistic
    deactivation with its midpoint at 38 °C. *)

(* robustlint: allow R12 — test_photo's "kinetic trends" case *)
val kinetics_at : float -> Params.kinetics
(** {!Params.default} adjusted to a leaf temperature: [kc_eff] (Q10 2.1),
    [gamma_star] (Q10 1.75) and [v_light] (same capacity scaling as the
    enzymes). *)

(* robustlint: allow R12 — test_photo's "calibration preserved" case *)
val uptake_at : env:Params.env -> t_c:float -> float
(** Net assimilation of the natural leaf at leaf temperature [t_c]. *)

val a_t_curve : env:Params.env -> t_values:float list -> (float * float) list
(** [(temperature, uptake)] samples of the natural leaf's response
    curve. *)

val optimum : env:Params.env -> float * float
(** (T_opt, A(T_opt)) of the natural leaf by golden-section search on
    [10, 45] °C. *)
