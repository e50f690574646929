(* Tests for the observability layer: the minimal JSON codec, nestable
   spans with Chrome export, and the global metrics registry.

   Span and Metrics are process-global, so every test that enables them
   disables and resets on the way out (Fun.protect) to stay hermetic. *)

let check_float ?(tol = 1e-12) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* {1 Json} *)

let roundtrip v = Obs.Json.parse (Obs.Json.to_string v)

(* Total lookup: missing members read as [Null]. *)
let mem k j = Option.value ~default:Obs.Json.Null (Obs.Json.member k j)

(* A registered histogram's data, as the shard wire carries it. *)
let hist name = List.assoc name (Obs.Metrics.delta ()).Obs.Metrics.d_histograms

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a\"b\\c\nd\tz");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (roundtrip v = v)

let test_json_float_precision () =
  (* %.17g round-trips every float exactly. *)
  let v = 0.1 +. 0.2 in
  match roundtrip (Obs.Json.Float v) with
  | Obs.Json.Float v' -> check_float "exact" v v'
  | _ -> Alcotest.fail "expected float"

let test_json_nonfinite_is_null () =
  (* JSON has no nan/inf; the writer degrades them to null. *)
  Alcotest.(check bool) "nan" true (roundtrip (Obs.Json.Float Float.nan) = Obs.Json.Null);
  Alcotest.(check bool)
    "inf" true
    (roundtrip (Obs.Json.Float Float.infinity) = Obs.Json.Null)

let test_json_parse_basics () =
  Alcotest.(check bool)
    "object" true
    (Obs.Json.parse {| {"a": [1, 2.5, "xA", false, null]} |}
    = Obs.Json.Obj
        [
          ( "a",
            Obs.Json.List
              [
                Obs.Json.Int 1;
                Obs.Json.Float 2.5;
                Obs.Json.String "xA";
                Obs.Json.Bool false;
                Obs.Json.Null;
              ] );
        ])

let test_json_parse_errors () =
  let rejects s =
    match Obs.Json.parse s with
    | exception Obs.Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\": }";
  rejects "tru";
  rejects "1 2";
  (* trailing garbage *)
  rejects "\"unterminated"

let test_json_depth_limit () =
  (* Recursion is capped so corrupt/hostile input raises Parse_error,
     never Stack_overflow. *)
  let deep n = String.concat "" [ String.make n '['; "1"; String.make n ']' ] in
  Alcotest.(check bool) "100 deep parses" true (Obs.Json.parse (deep 100) <> Obs.Json.Null);
  match Obs.Json.parse (deep 513) with
  | exception Obs.Json.Parse_error msg ->
    Alcotest.(check bool) "mentions nesting" true (contains_substring ~sub:"nesting" msg)
  | _ -> Alcotest.fail "accepted 513-deep nesting"

let test_json_rejects_nonfinite_literals () =
  (* JSON has no NaN/Infinity tokens; the parser must not grow them. *)
  let rejects s =
    match Obs.Json.parse s with
    | exception Obs.Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  List.iter rejects [ "NaN"; "nan"; "Infinity"; "-Infinity"; "[1, NaN]"; {| {"a": Infinity} |} ]

let test_json_string_escapes () =
  (* Control characters round-trip through \uXXXX; named escapes and
     UTF-8 \u decoding also hold. *)
  let ctl = String.init 0x20 Char.chr in
  (match roundtrip (Obs.Json.String ctl) with
  | Obs.Json.String s -> Alcotest.(check string) "control chars" ctl s
  | _ -> Alcotest.fail "expected string");
  Alcotest.(check bool) "named escapes decode" true
    (Obs.Json.parse {| "A\n\t\"\\\/" |} = Obs.Json.String "A\n\t\"\\/");
  Alcotest.(check bool) "2-byte utf8 from \\u" true
    (Obs.Json.parse {| "\u00e9" |} = Obs.Json.String "\xc3\xa9");
  Alcotest.(check bool) "3-byte utf8 from \\u" true
    (Obs.Json.parse {| "\u20ac" |} = Obs.Json.String "\xe2\x82\xac");
  match Obs.Json.parse {| "\u00g1" |} with
  | exception Obs.Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted bad hex escape"

let test_json_member_number () =
  let doc = Obs.Json.parse {| {"x": 3, "y": 4.5} |} in
  let num k = Option.bind (Obs.Json.member k doc) Obs.Json.number in
  Alcotest.(check (option (float 1e-12))) "int member" (Some 3.) (num "x");
  Alcotest.(check (option (float 1e-12))) "float member" (Some 4.5) (num "y");
  Alcotest.(check bool) "missing" true (Obs.Json.member "z" doc = None);
  Alcotest.(check bool) "number of a string" true (Obs.Json.number (Obs.Json.String "x") = None)

(* {1 Span} *)

let with_tracing f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ())
    f

let test_span_disabled_collects_nothing () =
  Obs.Span.reset ();
  let r = Obs.Span.with_span "ghost" (fun () -> 7) in
  Alcotest.(check int) "result" 7 r;
  Alcotest.(check int) "no events" 0 (List.length (Obs.Span.events ()))

let test_span_nesting_parents () =
  with_tracing @@ fun () ->
  Obs.Span.with_span "outer" (fun () ->
      Obs.Span.with_span "inner" (fun () -> ());
      Obs.Span.with_span "inner" (fun () -> ()));
  match Obs.Span.events () with
  | [ outer; i1; i2 ] ->
    Alcotest.(check string) "outer name" "outer" outer.Obs.Span.name;
    Alcotest.(check int) "outer is a root" (-1) outer.Obs.Span.parent;
    Alcotest.(check int) "ids sequential" 0 outer.Obs.Span.id;
    List.iter
      (fun (e : Obs.Span.event) ->
        Alcotest.(check string) "inner name" "inner" e.name;
        Alcotest.(check int) "inner parent" outer.Obs.Span.id e.parent)
      [ i1; i2 ];
    Alcotest.(check bool)
      "children within parent" true
      (i1.Obs.Span.start_ns >= outer.Obs.Span.start_ns
      && i1.Obs.Span.start_ns + i1.Obs.Span.dur_ns
         <= outer.Obs.Span.start_ns + outer.Obs.Span.dur_ns)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_span_recorded_on_raise () =
  with_tracing @@ fun () ->
  (try Obs.Span.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Obs.Span.events () with
  | [ e ] -> Alcotest.(check string) "recorded" "boom" e.Obs.Span.name
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_chrome_roundtrip () =
  with_tracing @@ fun () ->
  Obs.Span.with_span ~args:[ ("k", "v") ] "a" (fun () ->
      Obs.Span.with_span "b" (fun () -> ()));
  (* User args ride along in the export (visible in Perfetto)... *)
  Alcotest.(check bool) "user args exported" true
    (contains_substring ~sub:{|"k":"v"|} (Obs.Json.to_string (Obs.Span.export_chrome ())));
  let before = Obs.Span.events () in
  let after = Obs.Span.events_of_chrome (roundtrip (Obs.Span.export_chrome ())) in
  Alcotest.(check int) "count" (List.length before) (List.length after);
  List.iter2
    (fun (x : Obs.Span.event) (y : Obs.Span.event) ->
      Alcotest.(check int) "id" x.id y.id;
      Alcotest.(check int) "parent" x.parent y.parent;
      Alcotest.(check string) "name" x.name y.name;
      (* Chrome timestamps are microseconds, so ns fields survive only to
         1 us resolution. *)
      Alcotest.(check bool) "start" true (abs (x.start_ns - y.start_ns) < 1000);
      Alcotest.(check bool) "dur" true (abs (x.dur_ns - y.dur_ns) < 1000);
      (* ... but only the structural args (span_id/parent) are re-imported;
         the summary needs nothing else. *)
      Alcotest.(check bool) "user args not re-imported" true (y.args = []))
    before after

let test_span_events_of_chrome_rejects () =
  match Obs.Span.events_of_chrome (Obs.Json.Obj [ ("nope", Obs.Json.Null) ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a document without traceEvents"

let test_span_summarize_self_time () =
  (* Synthetic events so the arithmetic is exact: parent 0 spans 1000 ns
     and its two "child" spans cover 600, leaving 400 self. *)
  let ev id parent name start_ns dur_ns =
    { Obs.Span.id; parent; name; domain = 0; pid = 0; start_ns; dur_ns; args = [] }
  in
  let rows =
    Obs.Span.summarize
      [ ev 0 (-1) "parent" 0 1000; ev 1 0 "child" 100 500; ev 2 0 "child" 700 100 ]
  in
  match rows with
  | [ a; b ] ->
    (* child: total 600 = self 600, sorted first. *)
    Alcotest.(check string) "top row" "child" a.Obs.Span.row_name;
    Alcotest.(check int) "child calls" 2 a.Obs.Span.calls;
    Alcotest.(check int) "child total" 600 a.Obs.Span.total_ns;
    Alcotest.(check int) "child self" 600 a.Obs.Span.self_ns;
    Alcotest.(check string) "second row" "parent" b.Obs.Span.row_name;
    Alcotest.(check int) "parent total" 1000 b.Obs.Span.total_ns;
    Alcotest.(check int) "parent self" 400 b.Obs.Span.self_ns
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_span_pp_summary () =
  let ev id parent name start_ns dur_ns =
    { Obs.Span.id; parent; name; domain = 0; pid = 0; start_ns; dur_ns; args = [] }
  in
  let rows = Obs.Span.summarize [ ev 0 (-1) "only" 0 2_000_000 ] in
  let s = Format.asprintf "%a" (Obs.Span.pp_summary ~top:5) rows in
  Alcotest.(check bool) "non-empty" true (String.length s > 0);
  Alcotest.(check bool) "has the span name" true (contains_substring ~sub:"only" s)

(* {1 Metrics} *)

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

let test_metrics_disabled_noop () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "t.disabled" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  let h = Obs.Metrics.histogram ~buckets:[| 1. |] "t.disabled_h" in
  Obs.Metrics.observe h 0.5;
  Alcotest.(check int) "histogram untouched" 0 (hist "t.disabled_h").Obs.Metrics.hd_count

let test_metrics_counter () =
  with_metrics @@ fun () ->
  let c = Obs.Metrics.counter "t.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "value" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check bool)
    "registration idempotent" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "t.counter") = 5)

let test_metrics_counter_parallel_exact () =
  with_metrics @@ fun () ->
  let c = Obs.Metrics.counter "t.parallel" in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Obs.Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "exact under domains" 40_000 (Obs.Metrics.counter_value c)

let test_metrics_gauge () =
  with_metrics @@ fun () ->
  let g = Obs.Metrics.gauge "t.gauge" in
  Obs.Metrics.set_gauge g 1.5;
  Obs.Metrics.set_gauge g 2.5;
  check_float "last write wins" 2.5 (List.assoc "t.gauge" (Obs.Metrics.delta ()).Obs.Metrics.d_gauges)

let test_metrics_histogram_buckets () =
  with_metrics @@ fun () ->
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 10. |] "t.hist" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 5.; 50. ];
  Alcotest.(check int) "count" 3 (hist "t.hist").Obs.Metrics.hd_count;
  check_float "sum" 55.5 (hist "t.hist").Obs.Metrics.hd_sum;
  match mem "t.hist" (mem "histograms" (Obs.Metrics.snapshot ())) with
  | Obs.Json.Obj fields ->
    Alcotest.(check bool)
      "one observation per bucket" true
      (List.assoc "counts" fields
      = Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 1; Obs.Json.Int 1 ])
  | _ -> Alcotest.fail "histogram not in snapshot"

let test_metrics_histogram_validation () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "accepted invalid histogram"
  in
  invalid (fun () -> Obs.Metrics.histogram ~buckets:[||] "t.bad_empty");
  invalid (fun () -> Obs.Metrics.histogram ~buckets:[| 2.; 1. |] "t.bad_order");
  let _ = Obs.Metrics.histogram ~buckets:[| 1.; 2. |] "t.conflict" in
  invalid (fun () -> Obs.Metrics.histogram ~buckets:[| 1.; 3. |] "t.conflict")

let test_metrics_snapshot_deterministic () =
  with_metrics @@ fun () ->
  let c = Obs.Metrics.counter "t.snap" in
  Obs.Metrics.add c 3;
  let strip_seq j =
    match j with
    | Obs.Json.Obj fields -> List.remove_assoc "seq" fields
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let s1 = strip_seq (Obs.Metrics.snapshot ~label:"x" ()) in
  let s2 = strip_seq (Obs.Metrics.snapshot ~label:"x" ()) in
  (* Compare the serialized forms: that is the determinism the JSONL
     stream promises (unset gauges are NaN, which serializes as null but
     is not structurally equal to itself). *)
  Alcotest.(check string) "identical modulo seq"
    (Obs.Json.to_string (Obs.Json.Obj s1))
    (Obs.Json.to_string (Obs.Json.Obj s2));
  match List.assoc "counters" s1 with
  | Obs.Json.Obj counters ->
    Alcotest.(check bool) "value exact" true (List.assoc "t.snap" counters = Obs.Json.Int 3);
    let names = List.map fst counters in
    Alcotest.(check bool)
      "names sorted" true
      (List.sort String.compare names = names)
  | _ -> Alcotest.fail "no counters object"

let test_metrics_write_snapshot_jsonl () =
  with_metrics @@ fun () ->
  Obs.Metrics.incr (Obs.Metrics.counter "t.jsonl");
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Metrics.write_snapshot ~label:"a" oc;
      Obs.Metrics.write_snapshot ~label:"b" oc;
      close_out oc;
      let ic = open_in path in
      let lines =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> List.init 2 (fun _ -> input_line ic))
      in
      List.iteri
        (fun i line ->
          let doc = Obs.Json.parse line in
          Alcotest.(check bool)
            "has label" true
            (mem "label" doc = Obs.Json.String (if i = 0 then "a" else "b")))
        lines)

let test_metrics_quantiles () =
  (* counts has one slot per finite bound plus the +inf overflow bucket. *)
  let q le counts p = Obs.Metrics.quantile_of ~le ~counts p in
  let le = [| 10.; 20. |] in
  (* Empty histogram: no answer, not a crash. *)
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (q le [| 0; 0; 0 |] 0.5));
  (* All mass in the first bucket interpolates linearly from 0. *)
  check_float "median of first bucket" 5. (q le [| 4; 0; 0 |] 0.5);
  check_float "p100 of first bucket" 10. (q le [| 4; 0; 0 |] 1.0);
  (* Mass split across buckets: rank lands mid-second-bucket. *)
  check_float "interpolated" 15. (q le [| 0; 2; 2 |] 0.25);
  (* The +inf bucket has no upper bound; report the last finite one. *)
  check_float "overflow clamps" 20. (q le [| 0; 2; 2 |] 1.0);
  List.iter
    (fun bad ->
      match q le [| 1; 0; 0 |] bad with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "q=%g accepted -> %g" bad v)
    [ -0.1; 1.5; Float.nan ]

let test_metrics_contribution_fold () =
  with_metrics @@ fun () ->
  (* Worker side: some activity, shipped as a delta. *)
  let c = Obs.Metrics.counter "t.agg.c" in
  let g = Obs.Metrics.gauge "t.agg.g" in
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 2. |] "t.agg.h" in
  Obs.Metrics.add c 3;
  Obs.Metrics.set_gauge g 7.5;
  Obs.Metrics.observe h 0.5;
  let d = Obs.Metrics.delta () in
  Alcotest.(check bool) "delta includes zero counters" true
    (List.mem_assoc "t.agg.c" d.Obs.Metrics.d_counters);
  (* Supervisor side: fresh local state plus the stored contribution. *)
  Obs.Metrics.reset ();
  Obs.Metrics.add c 2;
  Obs.Metrics.observe h 1.5;
  Obs.Metrics.set_contribution ~key:1 d;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "counters sum" true
    (mem "t.agg.c" (mem "counters" snap) = Obs.Json.Int 5);
  (* Gauge unset locally after reset: the contribution's value shows. *)
  (match mem "t.agg.g" (mem "gauges" snap) with
  | Obs.Json.Float v -> check_float "contributed gauge" 7.5 v
  | j -> Alcotest.failf "gauge json %s" (Obs.Json.to_string j));
  (* Histograms merge elementwise when the bounds agree. *)
  (match mem "counts" (mem "t.agg.h" (mem "histograms" snap)) with
  | Obs.Json.List l ->
    Alcotest.(check bool) "hist counts elementwise" true
      (l = [ Obs.Json.Int 1; Obs.Json.Int 1; Obs.Json.Int 0 ])
  | j -> Alcotest.failf "hist json %s" (Obs.Json.to_string j));
  (* A locally set gauge wins over the contribution. *)
  Obs.Metrics.set_gauge g 1.25;
  (match mem "t.agg.g" (mem "gauges" (Obs.Metrics.snapshot ())) with
  | Obs.Json.Float v -> check_float "local gauge wins" 1.25 v
  | j -> Alcotest.failf "gauge json %s" (Obs.Json.to_string j));
  (* Replace semantics: re-shipping the same key does not double count. *)
  Obs.Metrics.set_contribution ~key:1 d;
  Alcotest.(check bool) "replace, not accumulate" true
    (mem "t.agg.c" (mem "counters" (Obs.Metrics.snapshot ())) = Obs.Json.Int 5);
  (* A second key does accumulate. *)
  Obs.Metrics.set_contribution ~key:2 d;
  Alcotest.(check bool) "second key adds" true
    (mem "t.agg.c" (mem "counters" (Obs.Metrics.snapshot ())) = Obs.Json.Int 8)

(* {1 Ring} *)

let with_ring f =
  Obs.Ring.reset ();
  Fun.protect ~finally:Obs.Ring.reset f

let test_ring_wraparound () =
  with_ring @@ fun () ->
  let path = Filename.temp_file "obs_ring" ".ring" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Ring.attach ~path ~lane:0;
  let p = Obs.Ring.probe "t.ring.wrap" in
  for i = 0 to 299 do
    Obs.Ring.record p Obs.Ring.Count i
  done;
  let es = (Obs.Ring.read ~path).Obs.Ring.d_entries in
  Alcotest.(check int) "capacity retained" Obs.Ring.capacity (List.length es);
  (* The oldest 44 events were overwritten; the survivors are the last
     256 in sequence order, values tracking sequence. *)
  let seqs = List.map (fun e -> e.Obs.Ring.e_seq) es in
  Alcotest.(check (list int)) "sequences 44..299" (List.init 256 (fun i -> 44 + i)) seqs;
  List.iter
    (fun e ->
      Alcotest.(check int) "value = seq" e.Obs.Ring.e_seq e.Obs.Ring.e_value;
      Alcotest.(check string) "probe name" "t.ring.wrap" e.Obs.Ring.e_name;
      Alcotest.(check bool) "kind" true (e.Obs.Ring.e_kind = Obs.Ring.Count))
    es

let test_ring_attach_read () =
  with_ring @@ fun () ->
  let path = Filename.temp_file "obs_ring" ".ring" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Probes interned before attach must survive into the file header. *)
      let early = Obs.Ring.probe "t.ring.early" in
      Obs.Ring.attach ~path ~lane:3;
      let late = Obs.Ring.probe "t.ring.late" in
      Obs.Ring.record early Obs.Ring.Mark 11;
      Obs.Ring.record late Obs.Ring.Fault 22;
      (* No flush step: the mmap IS the persistence (SIGKILL-proof). *)
      Alcotest.(check bool) "magic recognized" true (Obs.Ring.is_ring_file ~path);
      let d = Obs.Ring.read ~path in
      Alcotest.(check int) "lane" 3 d.Obs.Ring.d_lane;
      (* Detached, a record reaches no file: a forked worker resets to
         stop writing into its supervisor's ring. *)
      Obs.Ring.reset ();
      Obs.Ring.record late Obs.Ring.Fault 33;
      Alcotest.(check bool) "nothing recorded after reset" true
        ((Obs.Ring.read ~path).Obs.Ring.d_entries = d.Obs.Ring.d_entries);
      match d.Obs.Ring.d_entries with
      | [ a; b ] ->
        Alcotest.(check string) "early name" "t.ring.early" a.Obs.Ring.e_name;
        Alcotest.(check int) "early value" 11 a.Obs.Ring.e_value;
        Alcotest.(check string) "late name" "t.ring.late" b.Obs.Ring.e_name;
        Alcotest.(check bool) "fault kind" true (b.Obs.Ring.e_kind = Obs.Ring.Fault);
        let s = Format.asprintf "%a" Obs.Ring.pp d in
        Alcotest.(check bool) "pp mentions probe" true
          (contains_substring ~sub:"t.ring.early" s)
      | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es))

let test_ring_read_rejects_garbage () =
  let path = Filename.temp_file "obs_ring" ".not" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "definitely not a flight recorder";
      close_out oc;
      Alcotest.(check bool) "magic rejected" false (Obs.Ring.is_ring_file ~path);
      match Obs.Ring.read ~path with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "read accepted garbage")

(* A real dump — every slot written through [attach], four probes,
   every kind — mutated 1 000 times.  A mutant either raises
   [Invalid_argument] or decodes to well-formed entries that [pp]
   renders; [is_ring_file] never raises. *)
let test_ring_fuzz () =
  (* The 64-byte header, then the name table's 32-byte slots. *)
  let header_and_names = 64 + (Obs.Ring.max_names * 32) in
  let path = Filename.temp_file "obs_ring" ".ring" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let dump =
        with_ring @@ fun () ->
        Obs.Ring.attach ~path ~lane:5;
        let probes = Array.map Obs.Ring.probe [| "t.fuzz.a"; "t.fuzz.b"; "t.fuzz.c"; "t.fuzz.d" |] in
        let kinds = Obs.Ring.[| Enter; Leave; Fault; Count; Mark |] in
        for i = 0 to Obs.Ring.capacity + 43 do
          Obs.Ring.record probes.(i mod 4) kinds.(i mod 5) (i * 7919)
        done;
        In_channel.with_open_bin path In_channel.input_all
      in
      Alcotest.(check int) "the intact dump decodes whole" Obs.Ring.capacity
        (List.length (Obs.Ring.read ~path).Obs.Ring.d_entries);
      let rng = Numerics.Rng.create 2024 in
      let decoded = ref 0 and refused = ref 0 in
      for case = 1 to 1_000 do
        let b = Bytes.of_string dump in
        let n = Bytes.length b in
        let mutant =
          match Numerics.Rng.int rng 4 with
          | 0 ->
            let at =
              Numerics.Rng.int rng (if Numerics.Rng.bool rng then header_and_names else n)
            in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl Numerics.Rng.int rng 8)));
            Bytes.to_string b
          | 1 ->
            Bytes.set b (Numerics.Rng.int rng n) (Char.chr (Numerics.Rng.int rng 256));
            Bytes.to_string b
          | 2 -> Bytes.sub_string b 0 (Numerics.Rng.int rng n)
          | _ ->
            Bytes.to_string b
            ^ String.init (1 + Numerics.Rng.int rng 64) (fun _ -> Char.chr (Numerics.Rng.int rng 256))
        in
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc mutant);
        ignore (Obs.Ring.is_ring_file ~path);
        match Obs.Ring.read ~path with
        | exception Invalid_argument _ -> incr refused
        | d ->
          incr decoded;
          let rec ordered = function
            | a :: (b :: _ as rest) -> a.Obs.Ring.e_seq <= b.Obs.Ring.e_seq && ordered rest
            | _ -> true
          in
          if not (ordered d.Obs.Ring.d_entries) then Alcotest.failf "case %d: entries out of order" case;
          List.iter
            (fun e ->
              if not (e.Obs.Ring.e_t_ns > 0 && e.Obs.Ring.e_seq >= 0) then
                Alcotest.failf "case %d: entry seq %d at t %d" case e.Obs.Ring.e_seq
                  e.Obs.Ring.e_t_ns)
            d.Obs.Ring.d_entries;
          ignore (Format.asprintf "%a" Obs.Ring.pp d)
      done;
      Alcotest.(check bool) "some mutants decode" true (!decoded > 0);
      Alcotest.(check bool) "some mutants are refused" true (!refused > 0))

(* {1 Cross-process span merging} *)

let test_span_drain_ingest () =
  with_tracing @@ fun () ->
  Obs.Span.with_span "local" (fun () -> ());
  let drained = Obs.Span.drain ~pid:2 () in
  Alcotest.(check int) "drained one" 1 (List.length drained);
  Alcotest.(check int) "tagged with lane" 2 (List.hd drained).Obs.Span.pid;
  Alcotest.(check int) "local events removed" 0 (List.length (Obs.Span.events ()));
  (* Draining does not restart ids: the next span continues the line. *)
  Obs.Span.with_span "next" (fun () -> ());
  Obs.Span.ingest drained;
  match Obs.Span.events () with
  | [ a; b ] ->
    (* (pid, id) order: lane 0 first. *)
    Alcotest.(check string) "lane 0 first" "next" a.Obs.Span.name;
    Alcotest.(check int) "id continues" 1 a.Obs.Span.id;
    Alcotest.(check string) "ingested after" "local" b.Obs.Span.name;
    Alcotest.(check int) "ingested keeps id" 0 b.Obs.Span.id
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_on_fork_watermark () =
  with_tracing @@ fun () ->
  Obs.Span.with_span "parent-side" (fun () -> ());
  (* A forked worker drops inherited events and restarts ids at the
     supervisor-issued watermark. *)
  Obs.Span.on_fork ~next_id:40;
  Alcotest.(check int) "inherited events dropped" 0 (List.length (Obs.Span.events ()));
  Obs.Span.with_span "child-side" (fun () -> ());
  match Obs.Span.events () with
  | [ e ] -> Alcotest.(check int) "ids restart at watermark" 40 e.Obs.Span.id
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_summarize_cross_pid () =
  (* Two lanes sharing span ids: lane 1's child (parent=0) must not be
     subtracted from lane 0's span 0 — children are per (pid, parent). *)
  let ev pid id parent name start_ns dur_ns =
    { Obs.Span.id; parent; name; domain = 0; pid; start_ns; dur_ns; args = [] }
  in
  let events =
    [
      ev 0 0 (-1) "root" 0 1000;
      ev 1 0 (-1) "root" 0 800;
      ev 1 1 0 "leaf" 100 300;
    ]
  in
  (match Obs.Span.summarize events with
  | [ a; b ] ->
    Alcotest.(check string) "root aggregates lanes" "root" a.Obs.Span.row_name;
    Alcotest.(check int) "aggregated row has no pid" (-1) a.Obs.Span.row_pid;
    Alcotest.(check int) "root calls" 2 a.Obs.Span.calls;
    (* Only lane 1's root loses its own child's 300; lane 0 keeps 1000. *)
    Alcotest.(check int) "self subtracts per-lane only" 1500 a.Obs.Span.self_ns;
    Alcotest.(check string) "leaf row" "leaf" b.Obs.Span.row_name
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  match Obs.Span.summarize ~by_process:true events with
  | [ r1000; r500; leaf ] ->
    Alcotest.(check int) "lane 0 root alone" 0 r1000.Obs.Span.row_pid;
    Alcotest.(check int) "lane 0 self" 1000 r1000.Obs.Span.self_ns;
    Alcotest.(check int) "lane 1 root alone" 1 r500.Obs.Span.row_pid;
    Alcotest.(check int) "lane 1 self" 500 r500.Obs.Span.self_ns;
    Alcotest.(check int) "leaf lane" 1 leaf.Obs.Span.row_pid;
    (* Duration quantiles are per-row, nearest rank. *)
    Alcotest.(check int) "leaf p50" 300 leaf.Obs.Span.p50_ns
  | rows -> Alcotest.failf "expected 3 rows, got %d" (List.length rows)

(* {1 Report} *)

let test_report_torn_jsonl () =
  with_metrics @@ fun () ->
  Obs.Metrics.incr (Obs.Metrics.counter "t.report.c");
  let path = Filename.temp_file "obs_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Metrics.write_snapshot ~label:"epoch 1" oc;
      (* A kill mid-write tears the final line; blank lines also happen. *)
      output_string oc "\n";
      output_string oc "{\"label\": \"epoch 2\", \"counters\": {\"t.report";
      close_out oc;
      let mf = Obs.Report.read_metrics ~path in
      Alcotest.(check int) "parsed snapshots" 1 (List.length mf.Obs.Report.snapshots);
      Alcotest.(check int) "torn lines counted" 1 mf.Obs.Report.torn;
      let s = Format.asprintf "%a" (fun ppf () -> Obs.Report.pp ~metrics:mf ppf ()) () in
      Alcotest.(check bool) "report warns about torn lines" true
        (contains_substring ~sub:"torn" s))

let test_report_sections () =
  (* A report fed shard counters renders the restart timeline with
     latency quantiles from the shard.restart_ms histogram. *)
  with_metrics @@ fun () ->
  Obs.Metrics.add (Obs.Metrics.counter "shard.spawns") 3;
  Obs.Metrics.add (Obs.Metrics.counter "shard.restarts") 1;
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~buckets:Obs.Metrics.default_ms_buckets "shard.restart_ms")
    4.2;
  let path = Filename.temp_file "obs_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Metrics.write_snapshot ~label:"epoch 1" oc;
      close_out oc;
      let mf = Obs.Report.read_metrics ~path in
      let s = Format.asprintf "%a" (fun ppf () -> Obs.Report.pp ~metrics:mf ppf ()) () in
      Alcotest.(check bool) "timeline section" true
        (contains_substring ~sub:"restart" s);
      Alcotest.(check bool) "latency quantiles" true (contains_substring ~sub:"p99" s))

let test_report_lp_section () =
  (* Simplex kernel counters render the LP kernel health section with
     factor reuses beside the refactorizations, per-solve pivot
     quantiles, eta-file pressure and refactorization latency
     quantiles. *)
  with_metrics @@ fun () ->
  Obs.Metrics.add (Obs.Metrics.counter "simplex.solves") 2;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.pivots") 31;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.refactors") 1;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.factor_reuses") 3;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.bland_activations") 1;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.warm_starts") 1;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.dual_solves") 1;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.dual_pivots") 4;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.warm_rejects") 1;
  Obs.Metrics.add (Obs.Metrics.counter "simplex.warm_rejects_shape") 1;
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "simplex.eta_len") 7.;
  let per_solve =
    Obs.Metrics.histogram ~buckets:[| 1.; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000.; 5000. |]
      "simplex.pivots_per_solve"
  in
  Obs.Metrics.observe per_solve 4.;
  Obs.Metrics.observe per_solve 27.;
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~buckets:[| 1e3; 1e4; 1e5; 1e6 |] "simplex.refactor_ns")
    42_000.;
  let path = Filename.temp_file "obs_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Metrics.write_snapshot ~label:"epoch 1" oc;
      close_out oc;
      let mf = Obs.Report.read_metrics ~path in
      let s = Format.asprintf "%a" (fun ppf () -> Obs.Report.pp ~metrics:mf ppf ()) () in
      Alcotest.(check bool) "LP section present" true
        (contains_substring ~sub:"LP kernel health" s);
      Alcotest.(check bool) "Bland activations surfaced" true
        (contains_substring ~sub:"1 Bland activation(s)" s);
      Alcotest.(check bool) "factor reuses beside the refactorizations" true
        (contains_substring ~sub:"1 refactorization(s), 3 factor reuse(s)" s);
      Alcotest.(check bool) "update count surfaced" true
        (contains_substring ~sub:"basis updates since refactorization: 7" s);
      Alcotest.(check bool) "per-solve pivot quantiles surfaced" true
        (contains_substring ~sub:"pivots per solve: p50" s);
      Alcotest.(check bool) "dual line surfaced" true
        (contains_substring ~sub:"dual: 1 solve(s), 4 pivot(s)" s);
      Alcotest.(check bool) "reject reasons surfaced" true
        (contains_substring ~sub:"1 shape" s);
      Alcotest.(check bool) "refactor latency quantiles" true
        (contains_substring ~sub:"refactor time" s))

let test_report_ode_section () =
  (* ODE counters render the solver section: the PTC line, the restarts
     among the leaf evaluations (each runs PTC once, plus once per
     restart) and the unstable roots, the integrations and the failed
     windows among them, then the step and Jacobian economy. *)
  with_metrics @@ fun () ->
  let add name n = Obs.Metrics.add (Obs.Metrics.counter name) n in
  add "ode.integrations" 8;
  add "ode.underflows" 1;
  add "ode.rhs_evals" 1234;
  add "ode.steps" 150;
  add "ode.rejected" 7;
  add "ode.jacobians" 3;
  add "ode.ptc.calls" 10;
  add "ode.ptc.iterations" 140;
  add "ode.ptc.unstable" 3;
  add "photo.ptc_fallbacks" 2;
  let path = Filename.temp_file "obs_report" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Metrics.write_snapshot ~label:"epoch 1" oc;
      close_out oc;
      let mf = Obs.Report.read_metrics ~path in
      let s = Format.asprintf "%a" (fun ppf () -> Obs.Report.pp ~metrics:mf ppf ()) () in
      List.iter
        (fun line ->
          Alcotest.(check bool) (Printf.sprintf "line %S" line) true
            (contains_substring ~sub:line s))
        [
          "== ODE solver ==\n";
          "ptc calls 10, iterations 140\n";
          "restarts 2 of 8 evaluations (25.0%)\n";
          "unstable roots 3\n";
          "integrations            8\n";
          "underflows              1\n";
          "rhs evals 1234, steps 150 (7 rejected)\n";
          "jacobians 3\n";
        ])

(* Every input either parses or raises [Parse_error], and what parses
   holds finite floats only: overflowing literals, then 10 000 seeded
   mutations of a real metrics snapshot (one to three bit flips, byte
   overwrites or truncations each). *)
let test_json_fuzz () =
  let rejects s =
    match Obs.Json.parse s with
    | exception Obs.Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  List.iter rejects
    [ "1e999"; "-1e999"; "[0.5e400]"; {|{"a": 1E+999}|}; String.make 400 '9'; "-0.1e99999" ];
  let doc =
    with_metrics @@ fun () ->
    Obs.Metrics.add (Obs.Metrics.counter "ode.rhs_evals") 1234;
    Obs.Metrics.set_gauge (Obs.Metrics.gauge "arch.hypervolume") 0.4231;
    let h = Obs.Metrics.histogram "checkpoint.save_ms" in
    List.iter (Obs.Metrics.observe h) [ 0.3; 1.7; 42. ];
    Obs.Json.to_string (Obs.Metrics.snapshot ~label:"epoch 3" ())
  in
  let rec finite = function
    | Obs.Json.Float f -> Float.is_finite f
    | Obs.Json.List l -> List.for_all finite l
    | Obs.Json.Obj kvs -> List.for_all (fun (_, v) -> finite v) kvs
    | _ -> true
  in
  Alcotest.(check bool) "the document parses" true (finite (Obs.Json.parse doc));
  let rng = Numerics.Rng.create 404 in
  for case = 1 to 10_000 do
    let b = Bytes.of_string doc in
    let len = ref (Bytes.length b) in
    for _ = 0 to Numerics.Rng.int rng 3 do
      if !len > 0 then begin
        let at = Numerics.Rng.int rng !len in
        match Numerics.Rng.int rng 3 with
        | 0 ->
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl Numerics.Rng.int rng 8)))
        | 1 -> Bytes.set b at (Char.chr (Numerics.Rng.int rng 256))
        | _ -> len := at
      end
    done;
    let s = Bytes.sub_string b 0 !len in
    match Obs.Json.parse s with
    | j -> if not (finite j) then Alcotest.failf "case %d: a non-finite float parsed from %S" case s
    | exception Obs.Json.Parse_error _ -> ()
    | exception e -> Alcotest.failf "case %d: %s on %S" case (Printexc.to_string e) s
  done

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float precision" `Quick test_json_float_precision;
          Alcotest.test_case "non-finite to null" `Quick test_json_nonfinite_is_null;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "depth limit" `Quick test_json_depth_limit;
          Alcotest.test_case "rejects NaN/Infinity literals" `Quick
            test_json_rejects_nonfinite_literals;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "member and number" `Quick test_json_member_number;
          Alcotest.test_case "fuzz: parse or Parse_error" `Quick test_json_fuzz;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled collects nothing" `Quick
            test_span_disabled_collects_nothing;
          Alcotest.test_case "nesting and parents" `Quick test_span_nesting_parents;
          Alcotest.test_case "recorded on raise" `Quick test_span_recorded_on_raise;
          Alcotest.test_case "chrome roundtrip" `Quick test_span_chrome_roundtrip;
          Alcotest.test_case "events_of_chrome rejects" `Quick
            test_span_events_of_chrome_rejects;
          Alcotest.test_case "summarize self time" `Quick test_span_summarize_self_time;
          Alcotest.test_case "pp_summary" `Quick test_span_pp_summary;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled no-op" `Quick test_metrics_disabled_noop;
          Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "parallel exact" `Quick test_metrics_counter_parallel_exact;
          Alcotest.test_case "gauge" `Quick test_metrics_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram_buckets;
          Alcotest.test_case "histogram validation" `Quick test_metrics_histogram_validation;
          Alcotest.test_case "snapshot deterministic" `Quick
            test_metrics_snapshot_deterministic;
          Alcotest.test_case "jsonl writer" `Quick test_metrics_write_snapshot_jsonl;
          Alcotest.test_case "quantiles" `Quick test_metrics_quantiles;
          Alcotest.test_case "contribution fold" `Quick test_metrics_contribution_fold;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps last 256" `Quick test_ring_wraparound;
          Alcotest.test_case "attach and read back" `Quick test_ring_attach_read;
          Alcotest.test_case "read rejects garbage" `Quick test_ring_read_rejects_garbage;
          Alcotest.test_case "fuzz: read or Invalid_argument" `Quick test_ring_fuzz;
        ] );
      ( "merge",
        [
          Alcotest.test_case "drain and ingest" `Quick test_span_drain_ingest;
          Alcotest.test_case "on_fork watermark" `Quick test_span_on_fork_watermark;
          Alcotest.test_case "summarize across lanes" `Quick test_span_summarize_cross_pid;
        ] );
      ( "report",
        [
          Alcotest.test_case "torn jsonl tolerated" `Quick test_report_torn_jsonl;
          Alcotest.test_case "shard timeline section" `Quick test_report_sections;
          Alcotest.test_case "LP kernel health section" `Quick test_report_lp_section;
          Alcotest.test_case "ODE solver tiers section" `Quick test_report_ode_section;
        ] );
    ]
