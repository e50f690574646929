(* End-to-end schema check for the observability outputs, run from the
   [trace-check] dune alias (attached to [dune runtest]).

   Drives a 2-epoch mini archipelago over an ODE-backed problem with
   tracing and metrics enabled, then re-reads both files with [Obs.Json]
   and validates their shape: the trace must be a Chrome trace_event
   document (complete "X" events with name/ts/dur/pid/tid), the metrics
   stream one JSON object per epoch carrying the ode.*, guard.* and
   arch.* series.  No external tools — the same minimal JSON codec that
   wrote the files checks them.  Exits non-zero with a message on the
   first violation. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace-check: FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

(* Total lookup: missing members read as [Null]. *)
let mem k j = Option.value ~default:Obs.Json.Null (Obs.Json.member k j)

(* A problem whose every evaluation exercises the instrumented numeric
   stack: integrate a decay ODE to t = 1 and trade final mass against the
   decay rate. *)
let ode_problem =
  Moo.Problem.make ~name:"ode-mini" ~n_obj:2 ~lower:[| 0.1 |] ~upper:[| 2. |] (fun x ->
      let k = x.(0) in
      let r =
        Numerics.Ode.dopri5 ~f:(fun _ y dy -> dy.(0) <- -.k *. y.(0)) ~t0:0. ~t1:1. ~y0:[| 1. |] ()
      in
      [| r.Numerics.Ode.y.(0); k |])

let () =
  let trace_path = Filename.temp_file "trace_check" ".json" in
  let metrics_path = Filename.temp_file "trace_check" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ trace_path; metrics_path ])
  @@ fun () ->
  (* {2 Run: 2 epochs, tracing + metrics on} *)
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.Span.set_enabled true;
  Obs.Metrics.set_enabled true;
  let cfg =
    {
      Pmo2.Archipelago.default_config with
      migration_period = 2;
      nsga2 = { Ea.Nsga2.default_config with pop_size = 8 };
      guard_penalty = Some 1e12;
    }
  in
  let oc = open_out metrics_path in
  let r =
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Pmo2.Archipelago.run ~seed:7
          ~observer:(Pmo2.Archipelago.jsonl_observer oc)
          ~generations:4 ode_problem cfg)
  in
  Obs.Span.set_enabled false;
  Obs.Metrics.set_enabled false;
  Obs.Span.write_chrome ~path:trace_path;
  if r.Pmo2.Archipelago.front = [] then fail "mini run produced an empty front";

  (* {2 Trace: Chrome trace_event schema} *)
  let doc =
    try Obs.Json.parse (read_file trace_path)
    with Obs.Json.Parse_error msg -> fail "trace is not valid JSON: %s" msg
  in
  let events =
    match mem "traceEvents" doc with
    | Obs.Json.List l -> l
    | _ -> fail "trace has no traceEvents array"
  in
  if events = [] then fail "trace has no events";
  let span_names = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let str k =
        match mem k e with
        | Obs.Json.String s -> s
        | _ -> fail "event missing string field %S" k
      in
      let num k =
        match Obs.Json.number (mem k e) with
        | Some v -> v
        | None -> fail "event missing numeric field %S" k
      in
      match str "ph" with
      | "X" ->
        Hashtbl.replace span_names (str "name") ();
        if num "dur" < 0. then fail "negative span duration";
        ignore (num "ts");
        ignore (num "pid");
        ignore (num "tid")
      | "M" -> () (* thread-name metadata *)
      | ph -> fail "unexpected event phase %S" ph)
    events;
  List.iter
    (fun name ->
      if not (Hashtbl.mem span_names name) then fail "trace has no %S spans" name)
    [ "arch.epoch"; "arch.observe"; "ode.integrate" ];

  (* {2 Metrics: one snapshot per epoch with the expected series} *)
  let lines = read_lines metrics_path in
  if List.length lines <> 2 then
    fail "expected 2 metric snapshots (one per epoch), got %d" (List.length lines);
  List.iteri
    (fun i line ->
      let snap =
        try Obs.Json.parse line
        with Obs.Json.Parse_error msg -> fail "metrics line %d invalid: %s" (i + 1) msg
      in
      (match mem "label" snap with
      | Obs.Json.String label ->
        if label <> Printf.sprintf "epoch %d" (i + 1) then
          fail "line %d labelled %S" (i + 1) label
      | _ -> fail "metrics line %d has no label" (i + 1));
      let counter name =
        match mem name (mem "counters" snap) with
        | Obs.Json.Int n -> n
        | _ -> fail "metrics line %d: no counter %S" (i + 1) name
      in
      let gauge name =
        match mem name (mem "gauges" snap) with
        | Obs.Json.Null -> Float.nan (* non-finite degrades to null *)
        | v -> (
          match Obs.Json.number v with
          | Some x -> x
          | None -> fail "metrics line %d: no gauge %S" (i + 1) name)
      in
      if counter "ode.integrations" <= 0 then fail "no ODE activity recorded";
      if counter "ode.rhs_evals" <= counter "ode.steps" then
        fail "rhs_evals should dominate steps";
      if counter "guard.evaluations" <= 0 then fail "no guard activity recorded";
      if counter "arch.epochs" <> i + 1 then fail "arch.epochs out of step";
      if gauge "arch.epoch" <> float_of_int (i + 1) then fail "arch.epoch gauge out of step";
      if gauge "arch.archive_size" <= 0. then fail "empty archive reported";
      if gauge "arch.evaluations" <= 0. then fail "no evaluations reported";
      ignore (gauge "arch.hypervolume"))
    lines;
  (* The final epoch has a front, so its hypervolume must be a finite,
     positive number. *)
  (match List.rev lines with
  | last :: _ -> (
    match Obs.Json.number (mem "arch.hypervolume" (mem "gauges" (Obs.Json.parse last))) with
    | Some hv when Float.is_finite hv && hv >= 0. -> ()
    | Some hv -> fail "final hypervolume not finite: %g" hv
    | None -> fail "final snapshot has no hypervolume gauge")
  | [] -> fail "no metric lines");

  (* {2 Sharded: one merged trace with per-process lanes} *)
  let run_sharded () =
    Obs.Span.reset ();
    Obs.Metrics.reset ();
    Obs.Span.set_enabled true;
    Obs.Metrics.set_enabled true;
    let _r, _stats =
      Shard.Supervisor.run ~seed:7
        ~config:{ Shard.Supervisor.default with Shard.Supervisor.shards = 2 }
        ~generations:4 ode_problem cfg
    in
    Obs.Span.set_enabled false;
    Obs.Metrics.set_enabled false;
    let doc = Obs.Span.export_chrome () in
    Obs.Span.reset ();
    Obs.Metrics.reset ();
    doc
  in
  let sharded = run_sharded () in
  (* Same Chrome schema as the in-process trace. *)
  let sharded_events =
    match mem "traceEvents" sharded with
    | Obs.Json.List l -> l
    | _ -> fail "sharded trace has no traceEvents array"
  in
  let process_labels = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match mem "ph" e with
      | Obs.Json.String "X" -> ()
      | Obs.Json.String "M" ->
        if mem "name" e = Obs.Json.String "process_name" then
          Hashtbl.replace process_labels (mem "name" (mem "args" e)) ()
      | _ -> fail "sharded trace has a non-X/M event")
    sharded_events;
  List.iter
    (fun label ->
      if not (Hashtbl.mem process_labels (Obs.Json.String label)) then
        fail "sharded trace has no %S process lane" label)
    [ "supervisor"; "shard 0"; "shard 1" ];
  let evs = Obs.Span.events_of_chrome sharded in
  let pids = List.sort_uniq compare (List.map (fun (e : Obs.Span.event) -> e.Obs.Span.pid) evs) in
  if pids <> [ 0; 1; 2 ] then
    fail "sharded trace pid lanes are %s, want [0;1;2]"
      (String.concat ";" (List.map string_of_int pids));
  (* Events listed in (pid, id) order with unique ids per lane. *)
  let keys = List.map (fun (e : Obs.Span.event) -> (e.Obs.Span.pid, e.Obs.Span.id)) evs in
  if List.sort_uniq compare keys <> keys then fail "sharded trace events not in (pid, id) order";
  if
    not
      (List.exists
         (fun (e : Obs.Span.event) -> e.Obs.Span.pid > 0 && e.Obs.Span.name = "worker.step")
         evs)
  then fail "worker lanes carry no worker.step spans";
  if
    not
      (List.exists
         (fun (e : Obs.Span.event) -> e.Obs.Span.pid = 0 && e.Obs.Span.name = "shard.epoch")
         evs)
  then fail "supervisor lane carries no shard.epoch spans";

  (* {2 Sharded: trace byte-deterministic modulo timestamps} *)
  let normalize doc =
    let strip_time = function
      | Obs.Json.Obj fields ->
        Obs.Json.Obj (List.filter (fun (k, _) -> k <> "ts" && k <> "dur") fields)
      | j -> j
    in
    match mem "traceEvents" doc with
    | Obs.Json.List l -> Obs.Json.to_string (Obs.Json.List (List.map strip_time l))
    | _ -> fail "trace has no traceEvents array"
  in
  if normalize (run_sharded ()) <> normalize sharded then
    fail "sharded trace not deterministic modulo ts/dur";
  print_endline "trace-check: ok"
