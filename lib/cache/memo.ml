(* Observability probes: single-atomic-load no-ops while metrics are
   disabled.  The always-on per-instance counters live in the record
   below, guarded by the instance mutex. *)
let m_hits = Obs.Metrics.counter "cache.hits"
let m_misses = Obs.Metrics.counter "cache.misses"
let m_insertions = Obs.Metrics.counter "cache.insertions"
let m_evictions = Obs.Metrics.counter "cache.evictions"

(* Intrusive doubly-linked recency list: [head] is the most recently
   used entry, [tail] the eviction candidate.  The list (rather than a
   stamp scan) keeps eviction O(1) and — more importantly — free of any
   [Hashtbl.iter]/[fold] whose order would be unspecified. *)
type 'a node = {
  n_key : float array;
  n_hash : int64;
  mutable n_value : 'a;
  mutable n_prev : 'a node option;  (* toward the MRU end *)
  mutable n_next : 'a node option;  (* toward the LRU end *)
}

type 'a t = {
  cap : int;
  table : (int64, 'a node list) Hashtbl.t;  (* hash -> collision bucket *)
  lock : Mutex.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_insertions : int;
  mutable c_evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.Memo.create: capacity must be >= 1";
  {
    cap = capacity;
    table = Hashtbl.create (4 * capacity);
    lock = Mutex.create ();
    head = None;
    tail = None;
    len = 0;
    c_hits = 0;
    c_misses = 0;
    c_insertions = 0;
    c_evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

let bucket t h = Option.value ~default:[] (Hashtbl.find_opt t.table h)

let bucket_remove t h nd =
  match List.filter (fun n -> n != nd) (bucket t h) with
  | [] -> Hashtbl.remove t.table h
  | l -> Hashtbl.replace t.table h l

let unlink t nd =
  (match nd.n_prev with Some p -> p.n_next <- nd.n_next | None -> t.head <- nd.n_next);
  (match nd.n_next with Some nx -> nx.n_prev <- nd.n_prev | None -> t.tail <- nd.n_prev);
  nd.n_prev <- None;
  nd.n_next <- None

let push_front t nd =
  nd.n_prev <- None;
  nd.n_next <- t.head;
  (match t.head with Some h -> h.n_prev <- Some nd | None -> t.tail <- Some nd);
  t.head <- Some nd

let find t key =
  with_lock t @@ fun () ->
  let h = Fnv.hash key in
  match List.find_opt (fun nd -> Fnv.equal nd.n_key key) (bucket t h) with
  | Some nd ->
    t.c_hits <- t.c_hits + 1;
    Obs.Metrics.incr m_hits;
    unlink t nd;
    push_front t nd;
    Some nd.n_value
  | None ->
    t.c_misses <- t.c_misses + 1;
    Obs.Metrics.incr m_misses;
    None

let add t key value =
  with_lock t @@ fun () ->
  let h = Fnv.hash key in
  match List.find_opt (fun nd -> Fnv.equal nd.n_key key) (bucket t h) with
  | Some nd ->
    nd.n_value <- value;
    unlink t nd;
    push_front t nd
  | None ->
    let nd =
      { n_key = Array.copy key; n_hash = h; n_value = value; n_prev = None; n_next = None }
    in
    Hashtbl.replace t.table h (nd :: bucket t h);
    push_front t nd;
    t.len <- t.len + 1;
    t.c_insertions <- t.c_insertions + 1;
    Obs.Metrics.incr m_insertions;
    if t.len > t.cap then (
      match t.tail with
      | Some victim ->
        unlink t victim;
        bucket_remove t victim.n_hash victim;
        t.len <- t.len - 1;
        t.c_evictions <- t.c_evictions + 1;
        Obs.Metrics.incr m_evictions
      | None -> ())

let clear t =
  with_lock t @@ fun () ->
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.len <- 0

let stats t =
  with_lock t @@ fun () ->
  {
    hits = t.c_hits;
    misses = t.c_misses;
    insertions = t.c_insertions;
    evictions = t.c_evictions;
    size = t.len;
    capacity = t.cap;
  }

let zero_stats =
  { hits = 0; misses = 0; insertions = 0; evictions = 0; size = 0; capacity = 0 }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    insertions = a.insertions + b.insertions;
    evictions = a.evictions + b.evictions;
    size = a.size + b.size;
    capacity = a.capacity + b.capacity;
  }

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0. else float_of_int s.hits /. float_of_int lookups
