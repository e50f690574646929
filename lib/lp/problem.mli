(** Convenience builder for linear programs on top of {!Simplex}.

    Rows may be equalities or inequalities; inequalities are converted to
    equalities with slack variables before handing the problem to the
    simplex core. *)

type sense = Maximize | Minimize

type cmp = Eq | Le | Ge

type t

val make : ?sense:sense -> n_vars:int -> unit -> t
(** Fresh problem over [n_vars] variables, default bounds [(-inf, +inf)],
    zero objective, default sense [Maximize]. *)

val n_vars : t -> int

val set_objective : t -> int -> float -> unit
(** [set_objective p j c] sets the objective coefficient of variable [j]. *)

val set_bounds : t -> int -> float -> float -> unit
(** [set_bounds p j lo up]. *)

val add_row : t -> (int * float) list -> cmp -> float -> unit
(** [add_row p coeffs cmp rhs] adds the constraint [Σ cᵢ·xᵢ (cmp) rhs]. *)

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

val solve : t -> outcome
(** Solve with {!Simplex.solve}; the reported objective is in the
    problem's own sense. *)
