(** Physiological response curves of the natural leaf. *)

val a_ci_curve : tp_export:float -> ci_values:float list -> (float * float) list
(** [(ci, net assimilation)] pairs — the classic A/Ci curve. *)

val export_response : ci:float -> export_values:float list -> (float * float) list
(** Uptake as a function of the triose-P export capacity (sink
    limitation). *)
