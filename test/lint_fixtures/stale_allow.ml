(* Fixture: a justified allow whose finding no longer fires — the
   stale audit must flag it. *)
let tripled (x : int) = x * 3
(* robustlint: allow R1 — fixture: stale on purpose, nothing fires on this line *)
