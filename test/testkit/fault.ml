(* Deterministic evaluation-level fault injection for the tests of the
   fault-tolerance stack (Runtime.Guard, the archipelago supervisor,
   sharded runs).  Wraps an objective so that a configurable fraction of
   evaluations fail: raise [Injected], return NaN objectives, or stall
   (deterministic busy-work standing in for a near-timeout).  The
   decision for a candidate is a pure hash of [(seed, x)], not a shared
   random stream, so injection commutes with evaluation order and an
   archipelago run under injection is bit-identical whether islands
   evolve in parallel or sequentially.  Compose [wrap_problem] with
   Runtime.Guard.wrap_problem (guard outermost) to exercise recovery. *)

type mode = Raise | Nan | Stall

exception Injected

type config = {
  fraction : float;  (* fraction of evaluations faulted, in [0, 1] *)
  modes : mode list;  (* fault classes drawn from (hash-selected); non-empty *)
  seed : int;  (* decorrelates campaigns *)
  stall_iters : int;  (* busy-work iterations for Stall *)
}

(* 5% faults, all three modes, seed 0. *)
let default = { fraction = 0.05; modes = [ Raise; Nan; Stall ]; seed = 0; stall_iters = 50_000 }

let validate cfg =
  if not (cfg.fraction >= 0. && cfg.fraction <= 1.) then
    invalid_arg "Fault: fraction must be in [0, 1]";
  if cfg.modes = [] then invalid_arg "Fault: modes must be non-empty";
  if cfg.stall_iters < 0 then invalid_arg "Fault: stall_iters must be >= 0"

(* SplitMix64 finalizer — the same mixer the library's RNG uses, applied
   here as a pure hash so that the fault decision for a candidate depends
   only on (seed, x).  Call order is irrelevant, which keeps parallel and
   sequential archipelago schedules bit-identical under injection. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash cfg x =
  let h = ref (mix64 (Int64.add (Int64.of_int cfg.seed) 0x9E3779B97F4A7C15L)) in
  Array.iter (fun v -> h := mix64 (Int64.logxor !h (Int64.bits_of_float v))) x;
  !h

let decide cfg x =
  validate cfg;
  let h = hash cfg x in
  let u =
    Int64.to_float (Int64.shift_right_logical h 11) *. (1.0 /. 9007199254740992.0)
  in
  if u >= cfg.fraction then None
  else
    let n = List.length cfg.modes in
    let idx = Int64.to_int (Int64.rem (Int64.logand h 0x7FFFFFFFL) (Int64.of_int n)) in
    Some (List.nth cfg.modes idx)

(* Deterministic busy-work: models an evaluation that is pathologically
   slow (a near-timeout) without introducing wall-clock nondeterminism. *)
let stall iters =
  let acc = ref 0. in
  for i = 1 to iters do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

let wrap cfg ~n_obj f x =
  match decide cfg x with
  | None -> f x
  | Some Raise -> raise Injected
  | Some Nan -> Array.make n_obj Float.nan
  | Some Stall ->
    stall cfg.stall_iters;
    f x

let wrap_problem cfg p =
  { p with Moo.Problem.eval = wrap cfg ~n_obj:p.Moo.Problem.n_obj p.Moo.Problem.eval }
