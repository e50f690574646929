(** The paper's local robustness analysis (Section 2.3): one enzyme
    perturbed at a time, 200 trials per enzyme, ε = 5% — which single
    enzymes is the designed uptake most fragile to? *)

val print : unit -> unit
(** Per-enzyme local yields of the natural leaf (Ci = 270, low export),
    most fragile first. *)
