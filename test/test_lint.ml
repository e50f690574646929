(* End-to-end tests of the robustlint static analyzer: the fixture
   library under lint_fixtures/ carries one deliberate violation per
   rule (R12 on the interfaces of r12_exports and problem), interprocedural chains (generic helper instantiated at float,
   nondeterminism reaching an entry point through an intermediate), lock
   discipline shapes (off-lock read, double acquisition, order cycle,
   guarded global), and a spread of suppression-comment corner cases.
   The linter must report exactly the violations, at the right
   locations, and honour only the justified suppressions.

   The test executable runs in _build/default/test, so the fixture .cmt
   artifacts sit under lint_fixtures/... and compiled source paths
   ("test/lint_fixtures/...") resolve against "..". *)

let fixture_cmts = "lint_fixtures/.lint_fixtures.objs/byte"

let report = lazy (Lint.Driver.run ~force_lib:true ~source_root:".." [ fixture_cmts ])

let findings_in file =
  List.filter
    (fun f -> Filename.basename f.Lint.Finding.file = file)
    (Lazy.force report).Lint.Driver.findings

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec scan i = i + k <= n && (String.sub s i k = sub || scan (i + 1)) in
  scan 0

let check_single_finding ~rule ~file ~line () =
  match findings_in file with
  | [ f ] ->
    Alcotest.(check string) "rule id" rule (Lint.Finding.rule_id f.Lint.Finding.rule);
    Alcotest.(check int) "line" line f.Lint.Finding.line;
    Alcotest.(check string) "file path is build-root relative"
      ("test/lint_fixtures/" ^ file) f.Lint.Finding.file
  | fs -> Alcotest.failf "%s: expected exactly one finding, got %d" file (List.length fs)

let test_every_rule_fires () =
  check_single_finding ~rule:"R1" ~file:"r1_float_eq.ml" ~line:2 ();
  check_single_finding ~rule:"R2" ~file:"r2_random.ml" ~line:2 ();
  check_single_finding ~rule:"R3" ~file:"r3_marshal.ml" ~line:2 ();
  check_single_finding ~rule:"R4" ~file:"r4_swallow.ml" ~line:2 ();
  check_single_finding ~rule:"R5" ~file:"r5_assert.ml" ~line:3 ();
  check_single_finding ~rule:"R6" ~file:"r6_toplevel_state.ml" ~line:2 ();
  check_single_finding ~rule:"R7" ~file:"r7_hashtbl_iter.ml" ~line:2 ();
  check_single_finding ~rule:"R8" ~file:"r8_domain_spawn.ml" ~line:2 ();
  check_single_finding ~rule:"R9" ~file:"r9_fork.ml" ~line:2 ()

let test_r11_wall_clock () =
  match findings_in "r11_wallclock.ml" with
  | [ a; b ] ->
    Alcotest.(check string) "first is R11" "R11" (Lint.Finding.rule_id a.Lint.Finding.rule);
    Alcotest.(check string) "second is R11" "R11" (Lint.Finding.rule_id b.Lint.Finding.rule);
    Alcotest.(check (list int)) "lines" [ 2; 4 ] [ a.Lint.Finding.line; b.Lint.Finding.line ]
  | fs -> Alcotest.failf "expected two R11 findings, got %d" (List.length fs)

let test_no_extra_findings () =
  Alcotest.(check int) "total findings" 24
    (List.length (Lazy.force report).Lint.Driver.findings)

let test_units_counted () =
  (* 27 fixture modules plus the library's generated alias module. *)
  Alcotest.(check int) "units" 28 (Lazy.force report).Lint.Driver.units

(* {1 R12: exports no other unit references} *)

let test_r12_only_tests () =
  (* test_lint is a test: this call is no referrer. *)
  ignore (Lint_fixtures.R12_exports.only_tests 0);
  match findings_in "r12_exports.mli" with
  | [ f ] ->
    Alcotest.(check string) "rule" "R12" (Lint.Finding.rule_id f.Lint.Finding.rule);
    Alcotest.(check int) "at the val" 5 f.Lint.Finding.line;
    Alcotest.(check bool) "names the unit's value" true
      (contains ~sub:"Lint_fixtures.R12_exports.only_tests" f.Lint.Finding.message)
  | fs -> Alcotest.failf "r12_exports.mli: expected one finding, got %d" (List.length fs)

let test_r12_unit_keys () =
  (* R12_user references Lint_fixtures_other.Problem.make; a key by
     module name alone ("Problem.make") would hide this library's. *)
  check_single_finding ~rule:"R12" ~file:"problem.mli" ~line:3 ()

(* {1 Interprocedural R1: generic helpers instantiated at float} *)

let test_interproc_r1 () =
  let fs = findings_in "ip_caller.ml" in
  Alcotest.(check int) "ip_caller has exactly 3 findings" 3 (List.length fs);
  (match List.find_opt (fun f -> f.Lint.Finding.line = 6) fs with
  | Some f ->
    Alcotest.(check string) "helper call is R1" "R1" (Lint.Finding.rule_id f.Lint.Finding.rule);
    Alcotest.(check bool) "message names the generic helper" true
      (contains ~sub:"Ip_helper.dedup_sorted" f.Lint.Finding.message);
    Alcotest.(check bool) "message points at the helper's definition" true
      (contains ~sub:"ip_helper.ml" f.Lint.Finding.message)
  | None -> Alcotest.fail "no finding at ip_caller.ml:6 (interproc R1 through helper)");
  match List.find_opt (fun f -> f.Lint.Finding.line = 8) fs with
  | Some f ->
    Alcotest.(check string) "builtin carrier is R1" "R1"
      (Lint.Finding.rule_id f.Lint.Finding.rule);
    Alcotest.(check bool) "message names List.mem" true
      (contains ~sub:"List.mem" f.Lint.Finding.message)
  | None -> Alcotest.fail "no finding at ip_caller.ml:8 (List.mem at float)"

let test_taint_flow () =
  (* ip_caller.pick calls Ip_source.choose which reaches Random.int. *)
  let fs = findings_in "ip_caller.ml" in
  (match List.find_opt (fun f -> f.Lint.Finding.line = 10) fs with
  | Some f ->
    Alcotest.(check string) "flow finding is R2" "R2" (Lint.Finding.rule_id f.Lint.Finding.rule);
    Alcotest.(check bool) "message shows the chain" true
      (contains ~sub:"Ip_source.choose" f.Lint.Finding.message)
  | None -> Alcotest.fail "no finding at ip_caller.ml:10 (R2 flow)");
  (* quiet (line 12) calls nothing tainted: it must stay clean. *)
  Alcotest.(check bool) "no finding on the clean call" true
    (not (List.exists (fun f -> f.Lint.Finding.line = 12) fs));
  (* the suppressed source in ip_source (justified allow on line 10's
     Random.bits) must not leak taint: ip_source reports only the one
     active source on line 4. *)
  match findings_in "ip_source.ml" with
  | [ f ] -> Alcotest.(check int) "only the active source reports" 4 f.Lint.Finding.line
  | fs -> Alcotest.failf "ip_source.ml: expected one finding, got %d" (List.length fs)

(* {1 R10 lock discipline} *)

let test_r10_off_lock_read () =
  match findings_in "r10_locks.ml" with
  | [ f ] ->
    Alcotest.(check string) "rule" "R10" (Lint.Finding.rule_id f.Lint.Finding.rule);
    Alcotest.(check int) "line" 26 f.Lint.Finding.line;
    Alcotest.(check bool) "message names the field and the lock" true
      (contains ~sub:"t.size" f.Lint.Finding.message
      && contains ~sub:"lock" f.Lint.Finding.message)
  | fs -> Alcotest.failf "r10_locks.ml: expected one finding, got %d" (List.length fs)

let test_r10_double_and_global () =
  let fs = findings_in "r10_double.ml" in
  Alcotest.(check int) "two findings" 2 (List.length fs);
  (match List.find_opt (fun f -> f.Lint.Finding.line = 8) fs with
  | Some f ->
    Alcotest.(check bool) "double acquisition reported" true
      (contains ~sub:"already held" f.Lint.Finding.message)
  | None -> Alcotest.fail "no double-lock finding at line 8");
  match List.find_opt (fun f -> f.Lint.Finding.line = 10) fs with
  | Some f ->
    Alcotest.(check bool) "guarded global reported" true
      (contains ~sub:"mutex-guarded" f.Lint.Finding.message)
  | None -> Alcotest.fail "no guarded-global finding at line 10"

let test_r10_order_cycle () =
  match findings_in "r10_order.ml" with
  | [ f ] ->
    Alcotest.(check int) "line" 7 f.Lint.Finding.line;
    Alcotest.(check bool) "message reports the cycle" true
      (contains ~sub:"both orders" f.Lint.Finding.message)
  | fs -> Alcotest.failf "r10_order.ml: expected one finding, got %d" (List.length fs)

(* {1 Suppression comments} *)

let test_justified_suppression_silences () =
  List.iter
    (fun file ->
      Alcotest.(check int) (file ^ " has no finding") 0 (List.length (findings_in file)))
    [
      "suppressed_ok.ml";
      "r9_suppressed.ml";
      "suppress_multiline.ml";
      "suppress_lastline.ml";
      "stale_allow.ml";
    ];
  Alcotest.(check int) "eight suppressions counted" 8
    (Lazy.force report).Lint.Driver.suppressed

let test_unjustified_suppression_reports () =
  match findings_in "bad_suppression.ml" with
  | [ f ] ->
    Alcotest.(check string) "still R1" "R1" (Lint.Finding.rule_id f.Lint.Finding.rule);
    Alcotest.(check bool) "message flags the missing justification" true
      (contains ~sub:"justification" f.Lint.Finding.message)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_wrong_rule_does_not_mask () =
  (* an allow R2 comment sits right above a R1 violation: it must not
     silence it. *)
  check_single_finding ~rule:"R1" ~file:"suppress_wrongrule.ml" ~line:4 ()

let test_nested_module_scoping () =
  (* Inner.exact is suppressed; Deeper.Core.bad two modules down is not. *)
  check_single_finding ~rule:"R1" ~file:"suppress_nested.ml" ~line:11 ()

let test_parse_line () =
  let check name expected line rule =
    Alcotest.(check (option bool)) name expected (Lint.Suppress.parse_line line rule)
  in
  check "justified" (Some true)
    "  (* robustlint: allow R1 — exact sentinel *)" Lint.Finding.R1;
  check "ascii justification" (Some true)
    "(* robustlint: allow R5 boundary check documented in the mli *)" Lint.Finding.R5;
  check "bare allow is unjustified" (Some false) "(* robustlint: allow R1 *)" Lint.Finding.R1;
  check "wrong rule does not match" None "(* robustlint: allow R2 — reason *)"
    Lint.Finding.R1;
  check "ordinary code" None "let x = 1 + 2" Lint.Finding.R1

let test_rule_ids_roundtrip () =
  List.iter
    (fun id ->
      Alcotest.(check (option string)) (id ^ " roundtrips") (Some id)
        (Option.map Lint.Finding.rule_id (Lint.Finding.rule_of_id id)))
    (List.init 12 (fun i -> "R" ^ string_of_int (i + 1)));
  Alcotest.(check bool) "unknown id rejected" true (Lint.Finding.rule_of_id "R13" = None)

let test_missing_dir_yields_no_units () =
  let r = Lint.Driver.run ~source_root:".." [ "no-such-dir" ] in
  Alcotest.(check int) "no units" 0 r.Lint.Driver.units;
  Alcotest.(check int) "no findings" 0 (List.length r.Lint.Driver.findings)

(* A unit whose source changed after it was compiled: copy one fixture
   .cmt into a scratch build root beside its source, then edit the
   source.  The driver must refuse the run and name the .cmt. *)
let test_stale_cmt_refused () =
  let cmt = "lint_fixtures__R1_float_eq.cmt" in
  let root = Filename.temp_dir "robustlint" "" in
  let objs = Filename.concat root "objs" in
  let test_dir = Filename.concat root "test" in
  let src_dir = Filename.concat test_dir "lint_fixtures" in
  let src = Filename.concat src_dir "r1_float_eq.ml" in
  List.iter (fun d -> Sys.mkdir d 0o755) [ objs; test_dir; src_dir ];
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ Filename.concat objs cmt; src ];
      List.iter Sys.rmdir [ objs; src_dir; test_dir; root ])
    (fun () ->
      write (Filename.concat objs cmt) (read (Filename.concat fixture_cmts cmt));
      let source = read "lint_fixtures/r1_float_eq.ml" in
      write src source;
      let lint () = Lint.Driver.run ~force_lib:true ~source_root:root [ objs ] in
      Alcotest.(check int) "the unedited copy is read" 1 (lint ()).Lint.Driver.units;
      write src (source ^ "let edited = ()\n");
      match lint () with
      | _ -> Alcotest.fail "a .cmt older than its source was read"
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "names the .cmt" true (contains ~sub:cmt msg);
        Alcotest.(check bool) "says how to refresh it" true
          (contains ~sub:"dune build @check" msg))

(* {1 Report output} *)

let test_findings_sorted () =
  let fs = (Lazy.force report).Lint.Driver.findings in
  Alcotest.(check bool) "sorted by (file, line, col)" true
    (List.sort Lint.Finding.compare_by_loc fs = fs)

let test_byte_stable_output () =
  let render () = Format.asprintf "%a" Lint.Driver.print_text (Lazy.force report) in
  Alcotest.(check string) "two renders are byte-identical" (render ()) (render ())

(* {1 Stale-suppression audit} *)

let test_stale_scan () =
  Alcotest.(check (list (triple string int string)))
    "exactly the three dead allow comments"
    [
      ("test/lint_fixtures/r12_exports.mli", 8, "R12");
      ("test/lint_fixtures/stale_allow.ml", 4, "R1");
      ("test/lint_fixtures/suppress_wrongrule.ml", 3, "R2");
    ]
    (Lazy.force report).Lint.Driver.stale

let test_rule_on_line () =
  Alcotest.(check (option string)) "plain allow" (Some "R1")
    (Lint.Suppress.rule_on_line "(* robustlint: allow R1 — reason *)");
  Alcotest.(check (option string)) "double digits" (Some "R11")
    (Lint.Suppress.rule_on_line "  (* robustlint: allow R11 — reason *)");
  Alcotest.(check (option string)) "no digit is not a marker" None
    (Lint.Suppress.rule_on_line "(* robustlint: allow R<k> — doc example *)");
  Alcotest.(check (option string)) "out-of-range rule rejected" None
    (Lint.Suppress.rule_on_line "(* robustlint: allow R13 — no such rule *)");
  Alcotest.(check (option string)) "ordinary code" None (Lint.Suppress.rule_on_line "let x = 1")

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "every rule fires once" `Quick test_every_rule_fires;
          Alcotest.test_case "R11 wall clock" `Quick test_r11_wall_clock;
          Alcotest.test_case "no extra findings" `Quick test_no_extra_findings;
          Alcotest.test_case "units counted" `Quick test_units_counted;
          Alcotest.test_case "missing dir yields no units" `Quick
            test_missing_dir_yields_no_units;
          Alcotest.test_case "stale cmt refused" `Quick test_stale_cmt_refused;
        ] );
      ( "r12",
        [
          Alcotest.test_case "export only tests use" `Quick test_r12_only_tests;
          Alcotest.test_case "same-named modules keep their own keys" `Quick test_r12_unit_keys;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "R1 through a generic helper" `Quick test_interproc_r1;
          Alcotest.test_case "R2 taint flow" `Quick test_taint_flow;
        ] );
      ( "locks",
        [
          Alcotest.test_case "off-lock field read" `Quick test_r10_off_lock_read;
          Alcotest.test_case "double lock and guarded global" `Quick
            test_r10_double_and_global;
          Alcotest.test_case "lock-order cycle" `Quick test_r10_order_cycle;
        ] );
      ( "suppress",
        [
          Alcotest.test_case "justified suppression silences" `Quick
            test_justified_suppression_silences;
          Alcotest.test_case "unjustified suppression reports" `Quick
            test_unjustified_suppression_reports;
          Alcotest.test_case "wrong rule does not mask" `Quick test_wrong_rule_does_not_mask;
          Alcotest.test_case "nested module scoping" `Quick test_nested_module_scoping;
          Alcotest.test_case "comment parsing" `Quick test_parse_line;
          Alcotest.test_case "rule ids roundtrip" `Quick test_rule_ids_roundtrip;
        ] );
      ( "output",
        [
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
          Alcotest.test_case "byte-stable output" `Quick test_byte_stable_output;
        ] );
      ( "stale",
        [
          Alcotest.test_case "stale scan" `Quick test_stale_scan;
          Alcotest.test_case "rule_on_line" `Quick test_rule_on_line;
        ] );
    ]
