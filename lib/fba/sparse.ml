(* The sparse-matrix kernels were promoted to [Numerics.Sparse] so the
   LP basis factorization and the Jacobian coloring can share them; this
   alias keeps the existing [Fba.Sparse] call sites compiling.  New code
   should depend on [Numerics.Sparse] directly. *)

include Numerics.Sparse
