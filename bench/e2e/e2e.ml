(* End-to-end benchmark over four paper workloads.

     dune exec bench/e2e/e2e.exe -- run [--workload W] [--seed S] [--reps N]
                                        [--seconds T] [--trace 0|1] [--smoke]
     dune exec bench/e2e/e2e.exe -- compare BASE.json HEAD.json

   [run] times each rep in a fresh process — the harness re-executes
   itself ([rep]) — so that a sharded run forks before any domain
   exists, set-up time and peak RSS are per rep, and no memo table or
   lazy model leaks from one rep into the next.  Workloads run
   round-robin; reps continue until both N rounds and T seconds are
   done.  Rep k of a workload uses input seed k of the run's seed (rep 0
   the seed itself), so a run's medians span several inputs.

   With [--trace 0] every rep runs with Obs spans and metrics off and
   the run reports the end-to-end metrics.  With [--trace 1] each round
   adds a traced rep on the same inputs: its result digest must equal the
   untraced one, and the run reports the per-layer metrics (see
   [Layers]) plus the paired tracing overhead.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   Names and units are those declared in BENCHMARK.json.  A results file
   with every sample and a stamp (git rev, nproc, REPRO_SCALE, OCaml,
   seeds, reps) goes to bench/e2e/out/.  Time is read only through
   [Obs.Clock]. *)

module J = Obs.Json

let now_ns = Obs.Clock.now_ns
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc s;
      output_char oc '\n')

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt
let num f = if Float.is_finite f then J.Float f else J.Null

(* {1 The benchmark declaration} *)

type metric = { name : string; unit : string; higher : bool; bound : float }

type spec = { e2e : metric list; per_layer : metric list; workload_names : string list }

let read_spec path =
  let doc =
    try J.parse (read_file path) with
    | Sys_error m -> fail "cannot read the benchmark declaration: %s" m
    | J.Parse_error m -> fail "%s: %s" path m
  in
  let list k = match J.member k doc with Some (J.List l) -> l | _ -> fail "%s: no %S list" path k in
  let str j k = match J.member k j with Some (J.String s) -> s | _ -> fail "%s: entry without %S" path k in
  let metric j =
    {
      name = str j "name";
      unit = str j "unit";
      higher = str j "better" = "higher";
      bound = Option.value ~default:0. (Option.bind (J.member "bound" j) J.number);
    }
  in
  {
    e2e = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
    workload_names = List.map (fun w -> str w "name") (list "workloads");
  }

(* {1 One rep, in its own process} *)

(* A rep's result, handed to the parent through a file with [Marshal]:
   both ends are this same executable. *)
type rep = {
  setup_s : float;
  wall_s : float;
  peak_rss_mb : float;
  units : int;
  failures : int;
  front_hv : float;
  digest : string;
  checks : Workloads.check list;
  layers : (string * float) list;
  variation_spans : int;
  kernel_s : float;  (** the parent's host-speed probe around this rep *)
}

(* {2 Host speed}

   The cores of a shared 2-core virtual machine slow down by up to 2x for
   minutes at a time when neighbours load them, which swamps any median
   over reps.  Every time metric is therefore rescaled to a reference host
   speed: just before and just after each rep the parent times a fixed
   float kernel, which uses no library code, on both cores at once (a
   rep process may land on either core), and scales the rep's times by
   reference / measured.  The reference is the kernel's time on such a
   machine when idle, so on an idle host the rescaled times equal the
   raw ones; the raw samples stay in the results file. *)

let reference_kernel_s = 0.014

let kernel () =
  let t0 = now_ns () in
  let a = Array.init 4096 float_of_int in
  let s = ref 0. in
  for _ = 1 to 3000 do
    for i = 0 to 4095 do
      s := !s +. (a.(i) *. 1.0000001);
      a.(i) <- (a.(i) *. 0.9999999) +. 1e-9
    done
  done;
  ignore (Sys.opaque_identity !s);
  float_of_int (now_ns () - t0) /. 1e9

(* Mean kernel time over two runs, each on both cores at once. *)
let host_kernel_s () =
  let once () =
    let other = Domain.spawn kernel in
    let mine = kernel () in
    (mine +. Domain.join other) /. 2.
  in
  let a = once () in
  (a +. once ()) /. 2.

let e2e_values r =
  let speed = reference_kernel_s /. r.kernel_s in
  [
    ("wall_s", r.wall_s *. speed);
    ("evals_per_s", float_of_int r.units /. (r.wall_s *. speed));
    ("setup_s", r.setup_s *. speed);
    ("peak_rss_mb", r.peak_rss_mb);
    ("front_hv", r.front_hv);
  ]

let host_values r =
  [ ("raw_wall_s", r.wall_s); ("raw_setup_s", r.setup_s); ("host_kernel_s", r.kernel_s) ]

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> Float.nan
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> scan ())
      in
      scan ())

let counters_of_snapshot snap =
  match J.member "counters" snap with
  | Some (J.Obj kv) ->
    List.filter_map (fun (k, v) -> Option.map (fun f -> (k, int_of_float f)) (J.number v)) kv
  | _ -> []

(* Where a rep leaves its result for the parent. *)
let rep_file ~out name = Filename.concat out (name ^ ".rep")

let rep_main workload seed traced smoke in_process out spawn_ns =
  let w = match Workloads.find workload with Some w -> w | None -> fail "unknown workload %S" workload in
  if traced then begin
    Obs.Span.set_enabled true;
    Obs.Metrics.set_enabled true
  end;
  let ctx = { Workloads.seed; smoke; traced; in_process; out } in
  let timed = Obs.Span.with_span "e2e.setup" (fun () -> w.Workloads.setup ctx) in
  let setup_counters = if traced then counters_of_snapshot (Obs.Metrics.snapshot ()) else [] in
  let ready_ns = now_ns () in
  let finish = Obs.Span.with_span "e2e.run" timed in
  let done_ns = now_ns () in
  Obs.Span.set_enabled false;
  Obs.Metrics.set_enabled false;
  let layers, variation_spans =
    if not traced then ([], 0)
    else begin
      let path = Filename.concat out (workload ^ ".trace.json") in
      Obs.Span.write_chrome ~path;
      let events = Obs.Span.events_of_chrome (J.parse (read_file path)) in
      (* Counts of the timed phase only. *)
      let counters =
        List.map
          (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k setup_counters)))
          (counters_of_snapshot (Obs.Metrics.snapshot ()))
      in
      ( Layers.compute ~events ~counters ~domains:w.Workloads.domains,
        Layers.span_calls events "fba.variation" )
    end
  in
  let o = finish () in
  let r =
    {
      setup_s = float_of_int (ready_ns - spawn_ns) /. 1e9;
      wall_s = float_of_int (done_ns - ready_ns) /. 1e9;
      peak_rss_mb = peak_rss_mb ();
      units = o.Workloads.units;
      failures = o.Workloads.failures;
      front_hv = o.Workloads.front_hv;
      digest = o.Workloads.digest;
      checks = o.Workloads.checks;
      layers;
      variation_spans;
      kernel_s = Float.nan;
    }
  in
  Out_channel.with_open_bin (rep_file ~out workload) (fun oc -> Marshal.to_channel oc (r : rep) []);
  0

(* {1 The parent: schedule reps, aggregate, report} *)

let rep_deadline_s = 120.

(* Rep [k]'s input seed: the run's seed for k = 0, a derived stream
   otherwise — a pure function of (seed, k). *)
let rep_seed seed k =
  if k = 0 then seed
  else Int64.to_int (Numerics.Rng.bits64 (Numerics.Rng.stream ~seed k)) land 0x3FFF_FFFF

let rec wait_child pid deadline_ns =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now_ns () > deadline_ns ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    false
  | 0, _ ->
    Unix.sleepf 0.002;
    wait_child pid deadline_ns
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let spawn_rep ~out ~smoke ?(in_process = false) (w : Workloads.t) ~seed ~traced =
  let result = rep_file ~out w.Workloads.name in
  let flags =
    List.concat
      [
        (if traced then [ "--traced" ] else []);
        (if smoke then [ "--smoke" ] else []);
        (if in_process then [ "--in-process" ] else []);
      ]
  in
  let exe = Sys.executable_name in
  let args spawn =
    Array.of_list
      ([ exe; "rep"; "--workload"; w.Workloads.name; "--seed"; string_of_int seed; "--out"; out ]
      @ [ "--spawn-ns"; string_of_int spawn ]
      @ flags)
  in
  let kernel_before = host_kernel_s () in
  let spawn = now_ns () in
  (* The child's stdout goes to our stderr: only the parent writes the
     result line. *)
  let pid = Unix.create_process exe (args spawn) Unix.stdin Unix.stderr Unix.stderr in
  let ok = wait_child pid (spawn + int_of_float (rep_deadline_s *. 1e9)) in
  let r =
    if ok && Sys.file_exists result then
      let r : rep = In_channel.with_open_bin result Marshal.from_channel in
      Some { r with kernel_s = (kernel_before +. host_kernel_s ()) /. 2. }
    else None
  in
  if Sys.file_exists result then Sys.remove result;
  r

(* One round of one workload: the untraced rep and, when tracing, the
   traced rep on the same inputs ([None] = the rep process failed). *)
type round = { untraced : rep option; traced_rep : rep option }

type summary = {
  workload : Workloads.t;
  seed : int;
  n_rounds : int;
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;
  e2e : (string * float list) list;  (** samples over untraced reps *)
  host : (string * float list) list;  (** raw times and host probe, same reps *)
  layers : (string * float list) list;  (** samples over traced reps *)
  pairs : (rep * rep) list;  (** (untraced, traced) per round *)
}

let columns values reps =
  match reps with
  | [] -> []
  | r :: _ -> List.map (fun (k, _) -> (k, List.map (fun r -> List.assoc k (values r)) reps)) (values r)

let summarize (w : Workloads.t) ~seed ~tracing rounds =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let untraced = List.filter_map (fun r -> r.untraced) rounds in
  let traced = List.filter_map (fun r -> r.traced_rep) rounds in
  let reps = untraced @ traced in
  let lost = (List.length rounds * if tracing then 2 else 1) - List.length reps in
  if lost > 0 then problem "%d rep process(es) failed" lost;
  let failed_checks = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          if not c.Workloads.ok then begin
            incr failed_checks;
            problem "check %s: %s" c.Workloads.check c.Workloads.detail
          end)
        r.checks)
    reps;
  let pairs =
    List.filter_map
      (fun r -> match (r.untraced, r.traced_rep) with Some u, Some t -> Some (u, t) | _ -> None)
      rounds
  in
  List.iter
    (fun (u, t) ->
      if u.digest <> t.digest then problem "traced digest %s <> untraced %s" t.digest u.digest)
    pairs;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  let overhead = List.map (fun (u, t) -> 100. *. ((t.wall_s /. u.wall_s) -. 1.)) pairs in
  {
    workload = w;
    seed;
    n_rounds = List.length rounds;
    correct = !problems = [];
    attempted = lost + sum (fun r -> r.units + List.length r.checks);
    failed = lost + !failed_checks + sum (fun r -> r.failures);
    problems = List.rev !problems;
    e2e = columns e2e_values untraced;
    host = columns host_values untraced;
    layers =
      (if traced = [] then [] else columns (fun (r : rep) -> r.layers) traced @ [ ("trace_overhead_pct", overhead) ]);
    pairs;
  }

let median xs = if xs = [] then Float.nan else Numerics.Stats.median (Array.of_list xs)
let quantile xs p = if xs = [] then Float.nan else Numerics.Stats.quantile (Array.of_list xs) p
let iqr xs = quantile xs 0.75 -. quantile xs 0.25

(* IQR over median: the run-to-run spread the bounds are judged against. *)
let spread xs = iqr xs /. Float.abs (median xs)

let stats_json xs =
  J.Obj
    [
      ("median", num (median xs));
      ("q1", num (quantile xs 0.25));
      ("q3", num (quantile xs 0.75));
      ("samples", J.List (List.map num xs));
    ]

(* {1 Stamp and results file} *)

(* Reads only the checkout's own .git; "unknown" anywhere else. *)
let git_rev () =
  match Unix.open_process_args_full "git" [| "git"; "--git-dir=.git"; "rev-parse"; "--short=12"; "HEAD" |] (Unix.environment ()) with
  | exception Unix.Unix_error _ -> "unknown"
  | (out, inp, err) as p ->
    close_out inp;
    let rev = String.trim (In_channel.input_all out) in
    ignore (In_channel.input_all err);
    (match Unix.close_process_full p with Unix.WEXITED 0 when rev <> "" -> rev | _ -> "unknown")

let stamp summaries ~seconds ~trace =
  let per f = J.Obj (List.map (fun s -> (s.workload.Workloads.name, f s)) summaries) in
  J.Obj
    [
      ("git_rev", J.String (git_rev ()));
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("repro_scale", J.String (Option.value ~default:"quick" (Sys.getenv_opt "REPRO_SCALE")));
      ("ocaml", J.String Sys.ocaml_version);
      ("seeds", per (fun s -> J.Int s.seed));
      ("reps", per (fun s -> J.Int s.n_rounds));
      ("seconds", num seconds);
      ("trace", J.Int trace);
    ]

let results_json summaries ~seconds ~trace =
  let table kv = J.Obj (List.map (fun (k, xs) -> (k, stats_json xs)) kv) in
  J.Obj
    [
      ("stamp", stamp summaries ~seconds ~trace);
      ( "workloads",
        J.Obj
          (List.map
             (fun s ->
               ( s.workload.Workloads.name,
                 J.Obj
                   [
                     ("correct", J.Bool s.correct);
                     ("attempted", J.Int s.attempted);
                     ("failed", J.Int s.failed);
                     ("problems", J.List (List.map (fun p -> J.String p) s.problems));
                     ("e2e", table s.e2e);
                     ("host", table s.host);
                     ("layers", table s.layers);
                   ] ))
             summaries) );
    ]

(* {1 Report} *)

let print_summary ~(spec : spec) s =
  Printf.printf "== %s  seed %d, %d round%s ==\n" s.workload.Workloads.name s.seed s.n_rounds
    (if s.n_rounds = 1 then "" else "s");
  let row (m : metric) xs =
    Printf.printf "  %-26s %14.6g %-6s [%.6g, %.6g] n=%d\n" m.name (median xs) m.unit
      (quantile xs 0.25) (quantile xs 0.75) (List.length xs)
  in
  let section metrics kv =
    List.iter (fun m -> Option.iter (row m) (List.assoc_opt m.name kv)) metrics
  in
  section spec.e2e s.e2e;
  if s.layers <> [] then begin
    Printf.printf "  -- per layer (traced reps) --\n";
    section spec.per_layer s.layers
  end;
  Printf.printf "  attempted %d, failed %d%s\n" s.attempted s.failed
    (if s.correct then ", all checks pass" else "");
  List.iter (Printf.printf "  PROBLEM: %s\n") s.problems

(* The result line: the declared metrics of the run's kind, each the
   median over reps.  With several workloads, names are prefixed
   "<workload>/". *)
let result_line ~(spec : spec) ~trace summaries =
  let declared = if trace = 1 then spec.per_layer else spec.e2e in
  let prefix s = match summaries with [ _ ] -> "" | _ -> s.workload.Workloads.name ^ "/" in
  let metrics =
    List.concat_map
      (fun s ->
        let kv = if trace = 1 then s.layers else s.e2e in
        List.map
          (fun m ->
            ( prefix s ^ m.name,
              J.Obj
                [
                  ("value", num (median (Option.value ~default:[] (List.assoc_opt m.name kv))));
                  ("unit", J.String m.unit);
                ] ))
          declared)
      summaries
  in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (List.for_all (fun s -> s.correct) summaries));
         ("attempted", J.Int (Stdlib.max 1 (total (fun s -> s.attempted))));
         ("failed", J.Int (total (fun s -> s.failed)));
         ("metrics", J.Obj metrics);
       ])

(* {1 Smoke checks}

   Every declared metric is emitted with a finite value and nothing
   undeclared is; the workload list matches the declaration; and the
   sharded geobacter-fig4 run's merged spans and counters equal an
   in-process run's, which proves worker observability merges. *)
let smoke_problems ~(spec : spec) ~out summaries =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let names = List.map (fun w -> w.Workloads.name) Workloads.all in
  if List.sort compare names <> List.sort compare spec.workload_names then
    problem "workloads declared %s, implemented %s" (String.concat "," spec.workload_names)
      (String.concat "," names);
  List.iter
    (fun s ->
      let check kind declared kv =
        List.iter
          (fun m ->
            match List.assoc_opt m.name kv with
            | Some xs when xs <> [] && List.for_all Float.is_finite xs -> ()
            | _ -> problem "%s: %s metric %s missing or not finite" s.workload.Workloads.name kind m.name)
          declared;
        List.iter
          (fun (k, _) ->
            if not (List.exists (fun m -> m.name = k) declared) then
              problem "%s: %s metric %s is not declared" s.workload.Workloads.name kind k)
          kv
      in
      check "end-to-end" spec.e2e s.e2e;
      check "per-layer" spec.per_layer s.layers;
      if s.workload.Workloads.name = "geobacter-fig4" then
        match s.pairs with
        | (_, sharded) :: _ -> (
          match
            spawn_rep ~out ~smoke:true ~in_process:true s.workload ~seed:s.seed
              ~traced:true
          with
          | None -> problem "in-process geobacter-fig4 rep failed"
          | Some local ->
            let calls (r : rep) = List.assoc_opt "fba.variation.calls" r.layers in
            if calls sharded <> calls local || calls local = Some 0. then
              problem "fba.variation.calls: sharded %s, in-process %s"
                (Option.fold ~none:"-" ~some:string_of_float (calls sharded))
                (Option.fold ~none:"-" ~some:string_of_float (calls local));
            if sharded.variation_spans <> local.variation_spans then
              problem "fba.variation spans: sharded %d, in-process %d" sharded.variation_spans
                local.variation_spans;
            if sharded.digest <> local.digest then problem "sharded front differs from in-process")
        | [] -> problem "geobacter-fig4: no traced rep")
    summaries;
  List.rev !problems

(* {1 run} *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_main spec_path workload seed reps seconds trace smoke =
  let spec = read_spec spec_path in
  if trace <> 0 && trace <> 1 then fail "--trace takes 0 or 1";
  if reps < 1 then fail "--reps must be >= 1";
  let workloads =
    match workload with
    | None -> Workloads.all
    | Some n -> (match Workloads.find n with Some w -> [ w ] | None -> fail "unknown workload %S" n)
  in
  let tracing = trace = 1 || smoke in
  let reps = if smoke then 1 else reps in
  let out = if smoke then Filename.temp_dir "e2e-smoke" "" else "bench/e2e/out" in
  mkdir_p out;
  let seed_of w = Option.value seed ~default:w.Workloads.default_seed in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = Array.make (List.length workloads) [] in
  let rec loop k =
    if k < reps || now_ns () < deadline then begin
      List.iteri
        (fun i w ->
          let seed = rep_seed (seed_of w) k in
          let untraced = spawn_rep ~out ~smoke w ~seed ~traced:false in
          let traced_rep = if tracing then spawn_rep ~out ~smoke w ~seed ~traced:true else None in
          rounds.(i) <- { untraced; traced_rep } :: rounds.(i))
        workloads;
      loop (k + 1)
    end
  in
  ignore (kernel ()) (* warm-up: a fresh process's first kernel runs slow *);
  loop 0;
  let summaries =
    List.mapi (fun i w -> summarize w ~seed:(seed_of w) ~tracing (List.rev rounds.(i))) workloads
  in
  if smoke then
    List.iter
      (fun s -> List.iter (Printf.printf "%s: PROBLEM: %s\n" s.workload.Workloads.name) s.problems)
      summaries
  else List.iter (print_summary ~spec) summaries;
  let smoke_ok =
    (not smoke)
    ||
    match smoke_problems ~spec ~out summaries with
    | [] ->
      print_endline "smoke: every declared metric emitted and finite, checks pass, shard merge exact";
      true
    | ps ->
      List.iter (Printf.printf "SMOKE: %s\n") ps;
      false
  in
  if smoke then begin
    Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
    Sys.rmdir out
  end
  else begin
    let path =
      Filename.concat out
        (match workloads with [ w ] -> w.Workloads.name ^ ".result.json" | _ -> "e2e.result.json")
    in
    write_file path (J.to_string (results_json summaries ~seconds ~trace));
    Printf.printf "results: %s\n" path
  end;
  print_endline (result_line ~spec ~trace summaries);
  if smoke_ok && List.for_all (fun s -> s.correct) summaries then 0 else 1

(* {1 compare}

   Per (workload, end-to-end metric), against the declared bound:
   - unresolved: the wider IQR/median spread of the two sides exceeds
     the bound, unless every HEAD sample beats every BASE sample;
   - regressed: HEAD's median is worse than BASE's by more than the bound;
   - improved: HEAD beats BASE in ≥ 90% of sample pairs and the medians
     differ by more than BASE's IQR;
   - otherwise no worse. *)
type verdict = Improved | No_worse | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let judge (m : metric) base head =
  let better a b = if m.higher then a > b else a < b in
  let mb = median base and mh = median head in
  let worse = (if m.higher then mb -. mh else mh -. mb) /. Float.abs mb in
  let pairs = List.concat_map (fun h -> List.map (fun b -> (h, b)) base) head in
  let wins = List.length (List.filter (fun (h, b) -> better h b) pairs) in
  let all_better = wins = List.length pairs in
  if Float.max (spread base) (spread head) > m.bound && not all_better then Unresolved
  else if worse > m.bound then Regressed
  else if
    10 * wins >= 9 * List.length pairs
    && better mh mb
    && Float.abs (mh -. mb) > iqr base
  then Improved
  else No_worse

let samples_of doc workload metric =
  let ( >>= ) = Option.bind in
  match
    J.member "workloads" doc >>= J.member workload >>= J.member "e2e" >>= J.member metric
    >>= J.member "samples"
  with
  | Some (J.List l) -> List.filter_map J.number l
  | _ -> []

let compare_main spec_path base_path head_path =
  let spec = read_spec spec_path in
  let load path = try J.parse (read_file path) with Sys_error m | J.Parse_error m -> fail "%s: %s" path m in
  let base = load base_path and head = load head_path in
  let workloads doc = match J.member "workloads" doc with Some (J.Obj kv) -> List.map fst kv | _ -> [] in
  let common = List.filter (fun w -> List.mem w (workloads head)) (workloads base) in
  if common = [] then fail "no workload in common between %s and %s" base_path head_path;
  Printf.printf "%-16s %-12s %12s %12s %8s %8s %7s  %s\n" "workload" "metric" "base" "head" "change"
    "spread" "bound" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let b = samples_of base w m.name and h = samples_of head w m.name in
          if b <> [] && h <> [] then begin
            let v = judge m b h in
            if v = Regressed then regressed := true;
            Printf.printf "%-16s %-12s %12.6g %12.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n" w m.name
              (median b) (median h)
              (100. *. (median h -. median b) /. Float.abs (median b))
              (100. *. Float.max (spread b) (spread h))
              (100. *. m.bound) (verdict_name v)
          end)
        spec.e2e)
    common;
  if !regressed then 1 else 0

(* {1 Command line} *)

open Cmdliner

let spec_arg =
  Arg.(
    value & opt string "BENCHMARK.json"
    & info [ "spec" ] ~docv:"FILE" ~doc:"The benchmark declaration (metric names, units, bounds).")

let run_cmd =
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"W" ~doc:"Run only workload $(docv).")
  in
  let seed =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"S" ~doc:"Input seed (default: each workload's own).")
  in
  let reps = Arg.(value & opt int 3 & info [ "reps" ] ~docv:"N" ~doc:"Run at least $(docv) rounds.") in
  let seconds =
    Arg.(
      value & opt float 0.
      & info [ "seconds" ] ~docv:"T" ~doc:"Keep adding rounds until $(docv) seconds have passed.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: pair every rep with a traced rep and report the per-layer metrics.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"One tiny traced round of every workload; check metric names and the shard merge.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the workloads and print every metric.")
    Term.(const run_main $ spec_arg $ workload $ seed $ reps $ seconds $ trace $ smoke)

let rep_cmd =
  let workload = Arg.(required & opt (some string) None & info [ "workload" ]) in
  let seed = Arg.(required & opt (some int) None & info [ "seed" ]) in
  let traced = Arg.(value & flag & info [ "traced" ]) in
  let smoke = Arg.(value & flag & info [ "smoke" ]) in
  let in_process = Arg.(value & flag & info [ "in-process" ]) in
  let out = Arg.(required & opt (some string) None & info [ "out" ]) in
  let spawn_ns = Arg.(required & opt (some int) None & info [ "spawn-ns" ]) in
  Cmd.v
    (Cmd.info "rep" ~doc:"One rep of one workload (internal: `run` spawns these).")
    Term.(const rep_main $ workload $ seed $ traced $ smoke $ in_process $ out $ spawn_ns)

let compare_cmd =
  let base = Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE.json") in
  let head = Arg.(required & pos 1 (some string) None & info [] ~docv:"HEAD.json") in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge HEAD's results against BASE's under the declared bounds.")
    Term.(const compare_main $ spec_arg $ base $ head)

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "e2e" ~doc:"End-to-end benchmark of the paper workloads.")
          [ run_cmd; rep_cmd; compare_cmd ]))
