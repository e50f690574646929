(** Scalarization functions used by decomposition-based algorithms. *)

val tchebycheff : w:float array -> z:float array -> float array -> float
(** [tchebycheff ~w ~z f = maxᵢ wᵢ·|fᵢ − zᵢ|] with reference (ideal)
    point [z]; zero weights are lifted to a small epsilon so every
    objective keeps influence. *)

val uniform_weights : n:int -> n_obj:int -> float array array
(** [n] weight vectors over [n_obj] objectives.  For two objectives this
    is the uniform lattice [(i/(n−1), 1 − i/(n−1))]; for more objectives a
    simplex-lattice design is generated (and truncated/padded to [n]). *)
