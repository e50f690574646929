type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10 | R11 | R12

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | R12 -> "R12"

let rule_of_id = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | "R11" -> Some R11
  | "R12" -> Some R12
  | _ -> None

let hint = function
  | R1 ->
    "compare with a tolerance (|a - b| <= eps), or Float.equal/Float.compare where exact \
     semantics are intended (suppress with a justification)"
  | R2 -> "draw from Numerics.Rng (explicit, seedable, splittable stream)"
  | R3 -> "go through Runtime.Checkpoint.save/load or Frame (CRC-checked frame + atomic rename)"
  | R4 ->
    "match the specific exceptions, re-raise, or route through Runtime.Guard so the \
     failure is counted"
  | R5 -> "raise Invalid_argument via invalid_arg so callers can rely on the check"
  | R6 -> "pass state explicitly, or synchronize (Mutex/Atomic) and suppress with a justification"
  | R7 -> "sort keys first, fold into an order-insensitive value, or justify why order cannot leak"
  | R8 ->
    "submit to Parallel.Pool (persistent workers, deterministic chunking) instead of \
     spawning ad-hoc domains"
  | R9 ->
    "route process lifecycle through Shard.Supervisor (supervised forks, reaping, exit \
     discipline) instead of ad-hoc fork/exit"
  | R10 ->
    "take the guarding mutex (Mutex.protect or the module's with_lock wrapper) around \
     every read and write, keep a single global acquisition order, and never re-enter a \
     held lock"
  | R11 ->
    "use Obs.Clock.now_ns (monotonic) for durations, or thread time in explicitly; \
     wall-clock reads differ across runs and machines the same way Random does"
  | R12 ->
    "delete it (with the tests that check only it), move it into test/, drop it from the \
     .mli, or keep a test hook under an allow comment that names its test"

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

let compare_by_loc a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (rule_id a.rule) (rule_id b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s@,    hint: %s" f.file f.line f.col (rule_id f.rule)
    f.message (hint f.rule)
