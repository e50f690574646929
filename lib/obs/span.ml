type event = {
  id : int;
  parent : int;
  name : string;
  domain : int;
  pid : int;
  start_ns : int;
  dur_ns : int;
  args : (string * string) list;
}

(* The enabled flag is the only state touched on the disabled path: one
   atomic load and a conditional jump per probe. *)
let on = Atomic.make false

let next_id = Atomic.make 0

let lock = Mutex.create ()

(* All fields below are guarded by [lock]. *)
(* robustlint: allow R6 — process-global trace collector; every access holds [lock] *)
let buffers : (int, event list ref) Hashtbl.t = Hashtbl.create 8

(* robustlint: allow R6 — per-domain stacks of open span ids; every access holds [lock] *)
let open_stacks : (int, int list ref) Hashtbl.t = Hashtbl.create 8

(* robustlint: allow R6 — trace time origin, written once under [lock] *)
let origin_ns = ref (-1)

(* Events shipped from other processes (shard workers), already tagged
   with their lane.  Kept apart from [buffers] so a drain of the local
   events never re-exports foreign ones. *)
(* robustlint: allow R6 — ingested foreign events; every access holds [lock] *)
let foreign : event list ref = ref []

(* robustlint: allow R6 — pid lane -> display name; every access holds [lock] *)
let labels : (int * string) list ref = ref []

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled () = Atomic.get on

let set_enabled v =
  locked (fun () -> if v && !origin_ns < 0 then origin_ns := Clock.now_ns ());
  Atomic.set on v

let reset () =
  locked (fun () ->
      Hashtbl.reset buffers;
      Hashtbl.reset open_stacks;
      foreign := [];
      labels := [];
      Atomic.set next_id 0;
      origin_ns := Clock.now_ns ())

(* A forked worker inherits the supervisor's collector state wholesale;
   none of it belongs to the child.  The origin is deliberately kept:
   CLOCK_MONOTONIC is system-wide, so keeping the inherited origin puts
   every worker timestamp on the supervisor's timeline with no
   translation step.  [next_id] restarts at the supervisor-provided
   watermark for this worker's lane, so ids stay unique per lane across
   incarnations (a respawned worker replays exactly the uncommitted
   work, so reusing the uncommitted id range is what keeps the merged
   trace deterministic). *)
let on_fork ~next_id:base =
  locked (fun () ->
      Hashtbl.reset buffers;
      Hashtbl.reset open_stacks;
      foreign := [];
      labels := [];
      Atomic.set next_id base)

let set_process_label pid label =
  locked (fun () -> labels := (pid, label) :: List.remove_assoc pid !labels)

let slot tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl key r;
    r

(* Span name → flight-recorder probe, read without a lock.  [Ring.probe]
   takes the ring's mutex and scans every interned name, a quarter of an
   enabled span's cost, so each name is interned once and its id kept
   here.  Ids never change: attaching a ring file later writes every
   interned name into its header.  The list only grows; two domains that
   miss on one name at once both add it, with the same id.  A name is
   usually a literal, the same string on every call, so physical
   equality finds it before any string comparison runs. *)
let probes : (string * Ring.probe) list Atomic.t = Atomic.make []

let rec add_probe entry =
  let l = Atomic.get probes in
  if not (Atomic.compare_and_set probes l (entry :: l)) then add_probe entry

let probe_of name =
  let rec same = function
    | (n, _) :: _ as l when n == name -> l
    | _ :: rest -> same rest
    | [] -> []
  and equal = function
    | (n, p) :: rest -> if String.equal n name then p else equal rest
    | [] ->
      let p = Ring.probe name in
      add_probe (name, p);
      p
  in
  let l = Atomic.get probes in
  match same l with (_, p) :: _ -> p | [] -> equal l

let enter name =
  let domain = (Domain.self () :> int) in
  let id = Atomic.fetch_and_add next_id 1 in
  let rp = probe_of name in
  Ring.record rp Ring.Enter id;
  let parent, start_rel =
    locked (fun () ->
        let stack = slot open_stacks domain in
        let parent = match !stack with p :: _ -> p | [] -> -1 in
        stack := id :: !stack;
        (parent, Clock.now_ns () - !origin_ns))
  in
  (name, domain, id, parent, start_rel, rp)

let leave (name, domain, id, parent, start_rel, rp) args =
  let stop_abs = Clock.now_ns () in
  Ring.record rp Ring.Leave id;
  locked (fun () ->
      let stop_rel = stop_abs - !origin_ns in
      let stack = slot open_stacks domain in
      (* Pop through anything left open by an exception-crossed scope. *)
      stack := (match !stack with s :: rest when s = id -> rest | other -> List.filter (fun x -> x <> id) other);
      let buf = slot buffers domain in
      buf :=
        { id; parent; name; domain; pid = 0; start_ns = start_rel; dur_ns = stop_rel - start_rel; args }
        :: !buf)

let with_span ?args name f =
  if not (Atomic.get on) then f ()
  else begin
    let tok = enter name in
    Fun.protect ~finally:(fun () -> leave tok (Option.value args ~default:[])) f
  end

let by_pid_id a b =
  match compare a.pid b.pid with 0 -> compare a.id b.id | c -> c

let events () =
  let all =
    locked (fun () ->
        Seq.fold_left
          (fun acc (_, buf) -> List.rev_append !buf acc)
          !foreign (Hashtbl.to_seq buffers))
  in
  List.sort by_pid_id all

(* {1 Cross-process merging} *)

let drain ~pid () =
  let mine =
    locked (fun () ->
        let all =
          Seq.fold_left
            (fun acc (_, buf) -> List.rev_append !buf acc)
            [] (Hashtbl.to_seq buffers)
        in
        Hashtbl.reset buffers;
        all)
  in
  List.sort by_pid_id (List.map (fun e -> { e with pid }) mine)

let ingest evs = locked (fun () -> foreign := List.rev_append evs !foreign)

(* {1 Chrome trace export} *)

let event_json e =
  let args =
    Json.Obj
      (("span_id", Json.Int e.id)
       :: ("parent", Json.Int e.parent)
       :: List.map (fun (k, v) -> (k, Json.String v)) e.args)
  in
  Json.Obj
    [
      ("name", Json.String e.name);
      ("cat", Json.String "robustpath");
      ("ph", Json.String "X");
      ("ts", Json.Float (Clock.ns_to_us e.start_ns));
      ("dur", Json.Float (Clock.ns_to_us e.dur_ns));
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.domain);
      ("args", args);
    ]

let process_label pid =
  match List.assoc_opt pid (locked (fun () -> !labels)) with
  | Some l -> l
  | None -> if pid = 0 then "supervisor" else Printf.sprintf "process %d" pid

let process_meta pid =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String (process_label pid)) ]);
    ]

let thread_meta (pid, domain) =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int domain);
      ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" domain)) ]);
    ]

let export_chrome () =
  let evs = events () in
  let pids = List.sort_uniq compare (List.map (fun e -> e.pid) evs) in
  let threads = List.sort_uniq compare (List.map (fun e -> (e.pid, e.domain)) evs) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map process_meta pids @ List.map thread_meta threads
          @ List.map event_json evs) );
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let buf = Buffer.create 4096 in
      Json.to_buffer buf (export_chrome ());
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)

let events_of_chrome doc =
  let evs =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> invalid_arg "Span.events_of_chrome: no traceEvents array"
  in
  List.filter_map
    (fun ev ->
      match (Json.member "ph" ev, Json.member "name" ev) with
      | Some (Json.String "X"), Some (Json.String name) ->
        let num key = Option.bind (Json.member key ev) Json.number in
        let int_arg key =
          match Option.bind (Json.member "args" ev) (Json.member key) with
          | Some (Json.Int i) -> i
          | _ -> -1
        in
        let ns v = int_of_float ((v *. 1e3) +. 0.5) in
        Some
          {
            id = int_arg "span_id";
            parent = int_arg "parent";
            name;
            domain =
              (match num "tid" with Some t -> int_of_float t | None -> 0);
            pid = (match num "pid" with Some p -> int_of_float p | None -> 0);
            start_ns = (match num "ts" with Some t -> ns t | None -> 0);
            dur_ns = (match num "dur" with Some d -> ns d | None -> 0);
            args = [];
          }
      | _ -> None)
    evs

(* {1 Self-time summary} *)

type summary_row = {
  row_name : string;
  row_pid : int;
  calls : int;
  total_ns : int;
  self_ns : int;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
}

(* Exact order-statistic quantile over the recorded durations (nearest
   rank); these are per-row distributions of at most thousands of spans,
   so no bucketing is needed. *)
let dur_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(Stdlib.min (n - 1) (int_of_float (Float.of_int n *. q)))

let summarize ?(by_process = false) evs =
  (* Direct-children durations, charged to the parent.  Parent links are
     only meaningful within one process, so the key is [(pid, parent)]:
     a merged trace must never subtract a shard's child spans from a
     supervisor span that happens to share the id. *)
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.parent >= 0 then
        let key = (e.pid, e.parent) in
        Hashtbl.replace child_ns key
          (e.dur_ns + Option.value ~default:0 (Hashtbl.find_opt child_ns key)))
    evs;
  let rows = Hashtbl.create 16 in
  let durs : (string * int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let children = Option.value ~default:0 (Hashtbl.find_opt child_ns (e.pid, e.id)) in
      let self = Stdlib.max 0 (e.dur_ns - children) in
      let key = (e.name, if by_process then e.pid else -1) in
      (match Hashtbl.find_opt durs key with
      | Some r -> r := e.dur_ns :: !r
      | None -> Hashtbl.add durs key (ref [ e.dur_ns ]));
      let row =
        match Hashtbl.find_opt rows key with
        | Some r -> { r with calls = r.calls + 1; total_ns = r.total_ns + e.dur_ns; self_ns = r.self_ns + self }
        | None ->
          {
            row_name = e.name;
            row_pid = snd key;
            calls = 1;
            total_ns = e.dur_ns;
            self_ns = self;
            p50_ns = 0;
            p90_ns = 0;
            p99_ns = 0;
          }
      in
      Hashtbl.replace rows key row)
    evs;
  let all =
    List.of_seq
      (Seq.map
         (fun (key, r) ->
           let sorted =
             match Hashtbl.find_opt durs key with
             | Some l -> let a = Array.of_list !l in Array.sort compare a; a
             | None -> [||]
           in
           {
             r with
             p50_ns = dur_quantile sorted 0.50;
             p90_ns = dur_quantile sorted 0.90;
             p99_ns = dur_quantile sorted 0.99;
           })
         (Hashtbl.to_seq rows))
  in
  List.sort
    (fun a b ->
      match compare b.self_ns a.self_ns with
      | 0 -> (
        match compare a.row_name b.row_name with 0 -> compare a.row_pid b.row_pid | c -> c)
      | c -> c)
    all

let pp_summary ?(top = 15) ppf rows =
  let grand_self =
    List.fold_left (fun acc r -> acc + r.self_ns) 0 rows |> float_of_int |> Float.max 1.
  in
  let with_pid = List.exists (fun r -> r.row_pid >= 0) rows in
  if with_pid then
    Format.fprintf ppf "%-32s %4s %8s %11s %11s %6s %9s %9s %9s@\n" "span" "pid" "calls"
      "total ms" "self ms" "self%" "p50 ms" "p90 ms" "p99 ms"
  else
    Format.fprintf ppf "%-32s %8s %11s %11s %6s %9s %9s %9s@\n" "span" "calls" "total ms"
      "self ms" "self%" "p50 ms" "p90 ms" "p99 ms";
  List.iteri
    (fun i r ->
      if i < top then
        if with_pid then
          Format.fprintf ppf "%-32s %4d %8d %11.3f %11.3f %5.1f%% %9.3f %9.3f %9.3f@\n"
            r.row_name r.row_pid r.calls (Clock.ns_to_ms r.total_ns)
            (Clock.ns_to_ms r.self_ns)
            (100. *. float_of_int r.self_ns /. grand_self)
            (Clock.ns_to_ms r.p50_ns) (Clock.ns_to_ms r.p90_ns) (Clock.ns_to_ms r.p99_ns)
        else
          Format.fprintf ppf "%-32s %8d %11.3f %11.3f %5.1f%% %9.3f %9.3f %9.3f@\n"
            r.row_name r.calls (Clock.ns_to_ms r.total_ns) (Clock.ns_to_ms r.self_ns)
            (100. *. float_of_int r.self_ns /. grand_self)
            (Clock.ns_to_ms r.p50_ns) (Clock.ns_to_ms r.p90_ns) (Clock.ns_to_ms r.p99_ns))
    rows
