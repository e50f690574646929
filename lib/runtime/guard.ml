type stats = {
  evaluations : int;
  exceptions : int;
  non_finite : int;
}

let failures s = s.exceptions + s.non_finite

type t = {
  penalty : float;
  evaluations : int Atomic.t;
  exceptions : int Atomic.t;
  non_finite : int Atomic.t;
}

let log_src = Logs.Src.create "runtime.guard" ~doc:"Guarded objective evaluation"

module Log = (val Logs.src_log log_src)

(* Process-wide fault counters alongside the per-guard atomics: the
   per-guard stats answer "which island", the metrics stream answers
   "when" (one JSONL snapshot per epoch). *)
let m_evaluations = Obs.Metrics.counter "guard.evaluations"
let m_exceptions = Obs.Metrics.counter "guard.exceptions"
let m_non_finite = Obs.Metrics.counter "guard.non_finite"

(* Flight-recorder probes.  Only absorbed faults go to the ring — never
   per-evaluation events, which would flush its 256 slots in
   microseconds; the value is the guard's running failure count. *)
let rp_exception = Obs.Ring.probe "guard.exception"
let rp_non_finite = Obs.Ring.probe "guard.non_finite"

let create ?(penalty = 1e12) () =
  if not (Float.is_finite penalty) then invalid_arg "Guard.create: penalty must be finite";
  {
    penalty;
    evaluations = Atomic.make 0;
    exceptions = Atomic.make 0;
    non_finite = Atomic.make 0;
  }

let stats t =
  {
    evaluations = Atomic.get t.evaluations;
    exceptions = Atomic.get t.exceptions;
    non_finite = Atomic.get t.non_finite;
  }

let set_stats t (s : stats) =
  Atomic.set t.evaluations s.evaluations;
  Atomic.set t.exceptions s.exceptions;
  Atomic.set t.non_finite s.non_finite

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "%d evaluations, %d exceptions, %d non-finite" s.evaluations
    s.exceptions s.non_finite

(* Interrupts must escape the guard — a penalty objective is no answer to
   Ctrl-C — and nothing sane can be done about heap exhaustion either. *)
let fatal = function Sys.Break | Out_of_memory | Stack_overflow -> true | _ -> false

let wrap t ~n_obj f x =
  Atomic.incr t.evaluations;
  Obs.Metrics.incr m_evaluations;
  match f x with
  | exception e when not (fatal e) ->
    Atomic.incr t.exceptions;
    Obs.Metrics.incr m_exceptions;
    Obs.Ring.record rp_exception Obs.Ring.Fault (Atomic.get t.exceptions);
    Log.debug (fun m -> m "objective raised %s; penalized" (Printexc.to_string e));
    Array.make n_obj t.penalty
  | fv ->
    if Array.for_all Float.is_finite fv then fv
    else begin
      Atomic.incr t.non_finite;
      Obs.Metrics.incr m_non_finite;
      Obs.Ring.record rp_non_finite Obs.Ring.Fault (Atomic.get t.non_finite);
      Array.map (fun v -> if Float.is_finite v then v else t.penalty) fv
    end

let wrap_scalar t f x =
  match f x with
  | exception e when not (fatal e) ->
    Atomic.incr t.exceptions;
    Obs.Metrics.incr m_exceptions;
    Obs.Ring.record rp_exception Obs.Ring.Fault (Atomic.get t.exceptions);
    t.penalty
  | v ->
    if Float.is_finite v then v
    else begin
      Atomic.incr t.non_finite;
      Obs.Metrics.incr m_non_finite;
      Obs.Ring.record rp_non_finite Obs.Ring.Fault (Atomic.get t.non_finite);
      t.penalty
    end

let wrap_problem t p =
  {
    p with
    Moo.Problem.eval = wrap t ~n_obj:p.Moo.Problem.n_obj p.Moo.Problem.eval;
    violation = Option.map (wrap_scalar t) p.Moo.Problem.violation;
  }
