type counter = { c_name : string; cell : int Atomic.t }

type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  bounds : float array; (* upper bounds, strictly increasing *)
  counts : int array;   (* length bounds + 1; last is the +inf bucket *)
  mutable h_count : int;
  mutable h_sum : float;
  h_lock : Mutex.t;
}

(* Single flag guarding every probe: the disabled path is one atomic
   load and a branch. *)
let on = Atomic.make false

let enabled () = Atomic.get on

let set_enabled v = Atomic.set on v

let registry_lock = Mutex.create ()

(* The registries are guarded by [registry_lock]; the values inside are
   updated lock-free (counters), by word store (gauges) or under the
   per-histogram lock. *)
(* robustlint: allow R6 — process-global metric registry; every access holds [registry_lock] *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

(* robustlint: allow R6 — process-global metric registry; every access holds [registry_lock] *)
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

(* robustlint: allow R6 — process-global metric registry; every access holds [registry_lock] *)
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let snapshot_seq = Atomic.make 0

let registered tbl name make =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = make () in
        Hashtbl.add tbl name v;
        v)

(* {1 Counters} *)

let counter name = registered counters name (fun () -> { c_name = name; cell = Atomic.make 0 })

let incr c = if Atomic.get on then Atomic.incr c.cell

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell n)

let counter_value c = Atomic.get c.cell

(* {1 Gauges} *)

let gauge name = registered gauges name (fun () -> { g_name = name; g_value = Float.nan })

(* A gauge set is a single word store: racing writers are last-write-wins,
   which is the semantics a gauge advertises anyway. *)
let set_gauge g v = if Atomic.get on then g.g_value <- v

(* {1 Histograms} *)

let default_ms_buckets =
  [| 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000. |]

let histogram ?(buckets = default_ms_buckets) name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    buckets;
  let h =
    registered histograms name (fun () ->
        {
          h_name = name;
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_count = 0;
          h_sum = 0.;
          h_lock = Mutex.create ();
        })
  in
  if Array.length h.bounds <> Array.length buckets
     || not (Array.for_all2 (fun a b -> Float.compare a b = 0) h.bounds buckets)
  then
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %S re-registered with different buckets" name);
  h

let observe h v =
  if Atomic.get on then begin
    Mutex.lock h.h_lock;
    let n = Array.length h.bounds in
    let i = ref 0 in
    while !i < n && v > h.bounds.(!i) do
      Stdlib.incr i
    done;
    h.counts.(!i) <- h.counts.(!i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    Mutex.unlock h.h_lock
  end

(* {1 Quantiles} *)

let quantile_of ~le ~counts q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Metrics.quantile: q outside [0,1]";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Float.nan
  else begin
    let rank = q *. float_of_int total in
    let n_le = Array.length le in
    let rec go i cum =
      if i >= Array.length counts then le.(n_le - 1)
      else begin
        let cum' = cum + counts.(i) in
        if counts.(i) > 0 && float_of_int cum' >= rank then
          if i >= n_le then
            (* +inf bucket: no upper bound to interpolate towards; report
               the last finite bound (a known underestimate). *)
            le.(n_le - 1)
          else begin
            let lo = if i = 0 then 0. else le.(i - 1) in
            let frac = (rank -. float_of_int cum) /. float_of_int counts.(i) in
            lo +. ((le.(i) -. lo) *. Float.max 0. frac)
          end
        else go (i + 1) cum'
      end
    in
    go 0 0
  end

(* {1 Cross-process deltas} *)

type hist_data = {
  hd_le : float array;
  hd_counts : int array;
  hd_count : int;
  hd_sum : float;
}

type delta = {
  d_counters : (string * int) list;
  d_gauges : (string * float) list;
  d_histograms : (string * hist_data) list;
}

let sorted_values tbl =
  let all = List.of_seq (Hashtbl.to_seq tbl) in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let delta () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      {
        d_counters =
          List.map (fun (k, c) -> (k, Atomic.get c.cell)) (sorted_values counters);
        d_gauges =
          List.filter_map
            (fun (k, g) ->
              if Float.is_nan g.g_value then None else Some (k, g.g_value))
            (sorted_values gauges);
        d_histograms =
          List.map
            (fun (k, h) ->
              Mutex.lock h.h_lock;
              Fun.protect
                ~finally:(fun () -> Mutex.unlock h.h_lock)
                (fun () ->
                  ( k,
                    {
                      hd_le = Array.copy h.bounds;
                      hd_counts = Array.copy h.counts;
                      hd_count = h.h_count;
                      hd_sum = h.h_sum;
                    } )))
            (sorted_values histograms);
      })

(* One delta per contribution key (supervisor: one per worker spawn).
   Replace semantics: a worker's delta is cumulative since its fork, so
   storing the latest flush — and summing across spawn keys at snapshot
   time — keeps counters exact across kills, restarts and degradation. *)
(* robustlint: allow R6 — ingested worker deltas; every access holds [registry_lock] *)
let contributions : (int, delta) Hashtbl.t = Hashtbl.create 8

let set_contribution ~key d =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () -> Hashtbl.replace contributions key d)

let sorted_contributions () =
  let all = List.of_seq (Hashtbl.to_seq contributions) in
  List.map snd (List.sort (fun (a, _) (b, _) -> compare (a : int) b) all)

(* {1 Reset} *)

let reset () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      List.iter (fun (_, c) -> Atomic.set c.cell 0) (sorted_values counters);
      List.iter (fun (_, g) -> g.g_value <- Float.nan) (sorted_values gauges);
      List.iter
        (fun (_, h) ->
          Mutex.lock h.h_lock;
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.h_count <- 0;
          h.h_sum <- 0.;
          Mutex.unlock h.h_lock)
        (sorted_values histograms);
      Hashtbl.reset contributions;
      Atomic.set snapshot_seq 0)

(* {1 Snapshots} *)

let name_union locals per_contrib contribs =
  List.sort_uniq String.compare
    (List.map fst locals @ List.concat_map (fun d -> List.map fst (per_contrib d)) contribs)

let merged_counters locals contribs =
  List.map
    (fun n ->
      let base = Option.value ~default:0 (List.assoc_opt n locals) in
      let extra =
        List.fold_left
          (fun acc d -> acc + Option.value ~default:0 (List.assoc_opt n d.d_counters))
          0 contribs
      in
      (n, base + extra))
    (name_union locals (fun d -> d.d_counters) contribs)

let merged_gauges locals contribs =
  (* Gauges are last-write-wins: a locally set (non-NaN) value wins;
     otherwise the last contributing worker in key order does. *)
  List.map
    (fun n ->
      (* robustlint: allow R1 — assoc_opt compares only the string keys; the float payload is never compared *)
      let local = Option.value ~default:Float.nan (List.assoc_opt n locals) in
      let v =
        if not (Float.is_nan local) then local
        else
          List.fold_left
            (fun acc d ->
              (* robustlint: allow R1 — assoc_opt compares only the string keys; the float payload is never compared *)
              match List.assoc_opt n d.d_gauges with Some v -> v | None -> acc)
            Float.nan contribs
      in
      (n, v))
    (name_union locals (fun d -> d.d_gauges) contribs)

let add_hist a b =
  if Array.length a.hd_le = Array.length b.hd_le
     && Array.for_all2 (fun x y -> Float.compare x y = 0) a.hd_le b.hd_le
  then
    {
      a with
      hd_counts = Array.map2 ( + ) a.hd_counts b.hd_counts;
      hd_count = a.hd_count + b.hd_count;
      hd_sum = a.hd_sum +. b.hd_sum;
    }
  else a (* bucket mismatch across processes: keep ours, drop theirs *)

let merged_histograms locals contribs =
  List.map
    (fun n ->
      let from_contribs base =
        List.fold_left
          (fun acc d ->
            match (acc, List.assoc_opt n d.d_histograms) with
            | acc, None -> acc
            | None, Some hd -> Some hd
            | Some acc, Some hd -> Some (add_hist acc hd))
          base contribs
      in
      let merged =
        match from_contribs (List.assoc_opt n locals) with
        | Some hd -> hd
        | None -> { hd_le = [||]; hd_counts = [||]; hd_count = 0; hd_sum = 0. }
      in
      (n, merged))
    (name_union locals (fun d -> d.d_histograms) contribs)

let hist_data_json hd =
  Json.Obj
    [
      ("le", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) hd.hd_le)));
      ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) hd.hd_counts)));
      ("count", Json.Int hd.hd_count);
      ("sum", Json.Float hd.hd_sum);
    ]

let snapshot ?label () =
  let seq = Atomic.fetch_and_add snapshot_seq 1 in
  let local = delta () in
  let contribs =
    Mutex.lock registry_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_lock)
      (fun () -> sorted_contributions ())
  in
  let fields =
    [
      ("seq", Json.Int seq);
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (merged_counters local.d_counters contribs)) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Float v))
             (merged_gauges local.d_gauges contribs)) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, hd) -> (k, hist_data_json hd))
             (merged_histograms local.d_histograms contribs)) );
    ]
  in
  let fields =
    match label with Some l -> ("label", Json.String l) :: fields | None -> fields
  in
  Json.Obj fields

let write_snapshot ?label oc =
  let buf = Buffer.create 1024 in
  Json.to_buffer buf (snapshot ?label ());
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf;
  flush oc
