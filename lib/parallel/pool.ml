(* A process-wide persistent pool of worker domains.

   Lifecycle: [create] spawns [domains - 1] worker domains that park on
   a condition variable.  Each submission publishes one job (a map over
   [0, n) with a shared index cursor), bumps a sequence number and
   broadcasts; every worker wakes, claims indices from the cursor until
   it passes [n], and reports quiescence.  The submitting domain claims
   indices too and returns once all workers have quiesced, which doubles
   as the barrier guaranteeing no stale worker can touch the next job.
   Workers therefore live across an arbitrary number of submissions; the
   per-job cost is one broadcast and one rendezvous instead of a domain
   spawn/join per item.

   Determinism: every item is a pure function of its index writing only
   its own slot, and stochastic items derive their own
   [Numerics.Rng.stream].  Which domain runs an item is free; results
   are not. *)

let m_tasks = Obs.Metrics.counter "pool.tasks"
let m_idle_ns = Obs.Metrics.counter "pool.idle_ns"

type job = {
  run : int -> unit;
  n : int;
  next : int Atomic.t; (* the next unclaimed index *)
  elock : Mutex.t;
  (* First failure by index — a deterministic choice, unlike
     first-by-wall-clock. *)
  mutable exn : (int * exn * Printexc.raw_backtrace) option;
}

type t = {
  size : int; (* workers including the submitting domain *)
  lock : Mutex.t; (* guards job / seq / quiesced / stopped *)
  work_ready : Condition.t;
  job_done : Condition.t;
  submit : Mutex.t; (* serializes top-level submissions *)
  mutable job : job option;
  mutable seq : int;
  mutable quiesced : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

(* Set while a domain is draining a job: nested submissions from inside
   an item run inline instead of deadlocking on [submit]. *)
let in_task_key = Domain.DLS.new_key (fun () -> false)

let record_failure job i e bt =
  Mutex.lock job.elock;
  (match job.exn with
  | Some (i0, _, _) when i0 <= i -> ()
  | _ -> job.exn <- Some (i, e, bt));
  Mutex.unlock job.elock

(* Claim and run indices until the cursor passes [n].  Returns only when
   every index is claimed, which — combined with the quiescence barrier
   below — implies every item of the job has finished. *)
let drain job =
  Domain.DLS.set in_task_key true;
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      (match job.run i with
      | () -> ()
      (* robustlint: allow R4 — the barrier re-raises the lowest-index failure once all items settle *)
      | exception e -> record_failure job i e (Printexc.get_raw_backtrace ()));
      Obs.Metrics.incr m_tasks;
      go ()
    end
  in
  go ();
  Domain.DLS.set in_task_key false

let rec worker_loop t last_seen =
  Mutex.lock t.lock;
  let t0 = Obs.Clock.now_ns () in
  while (not t.stopped) && t.seq = last_seen do
    Condition.wait t.work_ready t.lock
  done;
  Obs.Metrics.add m_idle_ns (Obs.Clock.now_ns () - t0);
  if t.stopped then Mutex.unlock t.lock
  else begin
    let seen = t.seq in
    let job = Option.get t.job in
    Mutex.unlock t.lock;
    drain job;
    Mutex.lock t.lock;
    t.quiesced <- t.quiesced + 1;
    if t.quiesced = t.size - 1 then Condition.broadcast t.job_done;
    Mutex.unlock t.lock;
    worker_loop t seen
  end

let create ?domains () =
  let size =
    match domains with
    | None -> Domain.recommended_domain_count ()
    | Some d ->
      if d < 1 then invalid_arg "Pool.create: domains must be >= 1";
      d
  in
  let t =
    {
      size;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      job_done = Condition.create ();
      submit = Mutex.create ();
      job = None;
      seq = 0;
      quiesced = 0;
      stopped = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (size - 1) (fun _ ->
        (* robustlint: allow R8 — the pool is the one sanctioned spawn site; workers are parked between jobs and joined in shutdown *)
        Domain.spawn (fun () -> worker_loop t 0));
  t

let domains t = t.size

let shutdown t =
  Mutex.lock t.lock;
  let already = t.stopped in
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  (* Joining under the lock would deadlock with workers blocked on it, and
     t.workers is written once at creation. *)
  (* robustlint: allow R10 — join must happen off-lock; workers array is write-once *)
  if not already then Array.iter Domain.join t.workers

(* Publish one job and run it to completion.  The quiescence rendezvous
   is the safety property: the submission returns only after every
   worker has both seen this job's sequence number and found its cursor
   exhausted, so no worker can still be claiming from a stale job when
   the next one is published. *)
let submit t ~n run =
  Mutex.lock t.submit;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.submit)
    (fun () ->
      Obs.Span.with_span "pool.run" @@ fun () ->
      let job = { run; n; next = Atomic.make 0; elock = Mutex.create (); exn = None } in
      Mutex.lock t.lock;
      t.job <- Some job;
      t.quiesced <- 0;
      t.seq <- t.seq + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      drain job;
      Mutex.lock t.lock;
      while t.quiesced < t.size - 1 do
        Condition.wait t.job_done t.lock
      done;
      t.job <- None;
      Mutex.unlock t.lock;
      match job.exn with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

let parallel_map t ~n f =
  if n < 0 then invalid_arg "Pool.parallel_map: n must be >= 0";
  (* robustlint: allow R10 — deliberately racy fast-path read of stopped; a stale value only delays the inline fallback *)
  if n <= 1 || t.size = 1 || t.stopped || Domain.DLS.get in_task_key then
    Array.init n (fun i ->
        let v = f i in
        Obs.Metrics.incr m_tasks;
        v)
  else begin
    let out = Array.make n None in
    submit t ~n (fun i -> out.(i) <- Some (f i));
    Array.map Option.get out
  end

(* {1 The process-wide default pool} *)

type defaults = {
  dflock : Mutex.t;
  mutable pool : t option;
  mutable requested : int; (* 0 = recommended_domain_count *)
  mutable at_exit_registered : bool;
}

let defaults =
  { dflock = Mutex.create (); pool = None; requested = 0; at_exit_registered = false }

let set_default_domains d =
  if d < 1 then invalid_arg "Pool.set_default_domains: domains must be >= 1";
  Mutex.lock defaults.dflock;
  let stale =
    match defaults.pool with
    | Some p when p.size <> d ->
      defaults.pool <- None;
      Some p
    | _ -> None
  in
  defaults.requested <- d;
  Mutex.unlock defaults.dflock;
  Option.iter shutdown stale

let get () =
  Mutex.lock defaults.dflock;
  let p =
    match defaults.pool with
    | Some p -> p
    | None ->
      let domains = if defaults.requested > 0 then defaults.requested else Domain.recommended_domain_count () in
      let p = create ~domains () in
      defaults.pool <- Some p;
      if not defaults.at_exit_registered then begin
        defaults.at_exit_registered <- true;
        at_exit (fun () ->
            Mutex.lock defaults.dflock;
            let p = defaults.pool in
            defaults.pool <- None;
            Mutex.unlock defaults.dflock;
            Option.iter shutdown p)
      end;
      p
  in
  Mutex.unlock defaults.dflock;
  p

(* {1 Counters} *)

type stats = {
  tasks : int;
  idle_ns : int;
}

let stats () =
  { tasks = Obs.Metrics.counter_value m_tasks; idle_ns = Obs.Metrics.counter_value m_idle_ns }
