(** Alias of {!Numerics.Sparse}, kept so existing [Fba.Sparse] call
    sites are unaffected by the kernel move.  The types are equal: an [Fba.Sparse.t] {e is} a
    [Numerics.Sparse.t]. *)

include module type of struct
  include Numerics.Sparse
end
