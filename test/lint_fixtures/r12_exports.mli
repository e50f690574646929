(* Fixture: R12 over one interface.  [used] has a referrer (R12_user),
   [only_tests] is called only from test_lint, [hook] keeps a justified
   allow, and the allow above [also_used] silences nothing. *)
val used : int -> int
val only_tests : int -> int
(* robustlint: allow R12 — fixture: a test hook kept under a justified allow *)
val hook : int -> int
(* robustlint: allow R12 — fixture: stale on purpose, R12_user references it *)
val also_used : int -> int
