(** Real-coded variation operators (Deb & Agrawal).

    Both operators clip their results into the [\[lower, upper\]] box. *)

(** {2 The standard settings}

    Every algorithm in this library runs the operators on these values;
    only NSGA-II's [eta_c] and mutation probability can differ (the
    operator ablation and the Geobacter runs set them). *)

val crossover_prob : float
(** 0.9: SBX applies to a pair of parents with this probability. *)

val eta_c : float
(** 15: the SBX distribution index. *)

val eta_m : float
(** 20: the polynomial-mutation distribution index. *)

val mutation_prob : int -> float
(** [mutation_prob n_var] is [1 / n_var]: each gene mutates with this
    probability, one gene per child on average. *)

val sbx_crossover :
  eta:float ->
  prob:float ->
  rng:Numerics.Rng.t ->
  lower:float array ->
  upper:float array ->
  float array ->
  float array ->
  float array * float array
(** Simulated binary crossover with distribution index [eta]; applied with
    probability [prob] (otherwise the parents are copied), and per-gene
    with probability 0.5 as in the reference implementation. *)

val polynomial_mutation :
  eta:float ->
  prob:float ->
  rng:Numerics.Rng.t ->
  lower:float array ->
  upper:float array ->
  float array ->
  float array
(** Polynomial mutation with distribution index [eta]; each gene mutates
    with probability [prob]. Returns a fresh vector. *)
