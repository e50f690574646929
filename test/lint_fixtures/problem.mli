(* Fixture: same module name as Lint_fixtures_other.Problem, whose
   [make] R12_user references; R12 must still fire on this [make]. *)
val make : unit -> int
