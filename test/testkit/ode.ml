(* Every Jacobian entry structurally nonzero: one column per group, so a
   forward-difference Jacobian is the plain n-call one.  Toy systems in
   the tests use it where the leaf passes Photo.Model.pattern (). *)
let dense_pattern n = Numerics.Ode.pattern (Array.make n (Array.init n Fun.id))

(* [inside ~n p i j]: whether entry (i, j) is in [p], read through
   Ode.numeric_jacobian.  Every output of dy_i = Σ y_j reads every input
   with weight 1, so a grouped forward difference is positive exactly
   inside the pattern; an entry outside it is +0. *)
let inside ~n pattern =
  let f _ y dy = Array.fill dy 0 n (Array.fold_left ( +. ) 0. y) in
  let jac = Numerics.Ode.numeric_jacobian ~pattern f 0. (Array.make n 1.) in
  fun i j -> Numerics.Matrix.get jac i j > 0.
