(** A single-objective real-coded genetic algorithm (tournament selection,
    SBX, polynomial mutation, elitism).

    Used where the library needs plain maximization — e.g. reproducing the
    Zhu et al. (2007) experiment underlying the paper's leaf model:
    repartition enzyme nitrogen at a fixed total and maximize CO2 uptake
    alone.

    The population is 60, the best 2 are copied unchanged each
    generation, and variation is SBX and polynomial mutation on the
    standard settings of {!Operators}. *)

type result = {
  best_x : float array;
  best_f : float;   (** maximized objective *)
  evaluations : int;
  history : float list;  (** best-so-far per generation, oldest first *)
}

val maximize :
  generations:int ->
  seed:int ->
  lower:float array ->
  upper:float array ->
  (float array -> float) ->
  result
