(* Fixture: the referrer of R12_exports and of the other library's
   Problem.make, which must not cover this library's Problem.make. *)
let total x = R12_exports.used x + R12_exports.also_used x + Lint_fixtures_other.Problem.make ()
