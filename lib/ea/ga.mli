(** A single-objective real-coded genetic algorithm (tournament selection,
    SBX, polynomial mutation, elitism).

    Used where the library needs plain maximization — e.g. reproducing the
    Zhu et al. (2007) experiment underlying the paper's leaf model:
    repartition enzyme nitrogen at a fixed total and maximize CO2 uptake
    alone. *)

type config = {
  pop_size : int;
  crossover_prob : float;
  eta_c : float;
  mutation_prob : float option;  (** default [1 / n_var] *)
  eta_m : float;
  elites : int;  (** individuals copied unchanged each generation *)
}

type result = {
  best_x : float array;
  best_f : float;   (** maximized objective *)
  evaluations : int;
  history : float list;  (** best-so-far per generation, oldest first *)
}

val maximize :
  ?config:config ->
  generations:int ->
  seed:int ->
  lower:float array ->
  upper:float array ->
  (float array -> float) ->
  result
