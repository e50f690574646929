(* Fixture: no rule fires in this file, and its one allow comment
   silences nothing, so the lint gate must still fail. *)
let halve (x : int) = x / 2
(* robustlint: allow R1 — fixture: stale on purpose, nothing fires on this line *)
