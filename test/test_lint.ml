(* Tier-1 tests for lc_lint: each planted fixture triggers exactly its
   rule (the typed pipeline runs end to end, call-graph rules included),
   the clean fixture triggers nothing, baseline v2 entries parse,
   round-trip, suppress / expire / warn when prose-only, the lowcon-lint
   JSON report round-trips through its own decoder, missing or corrupt
   .cmt inputs exit 2 with the file named, and exit codes follow the
   0/1/2 contract. *)

module Rule = Lc_lint.Rule
module Finding = Lc_lint.Finding
module Baseline = Lc_lint.Baseline
module Hotpath = Lc_lint.Hotpath
module Driver = Lc_lint.Driver
module Report = Lc_lint.Report
module Sarif = Lc_lint.Sarif
module Json = Lc_obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let read_fixture name =
  let ic = open_in_bin (Filename.concat "fixtures/lint" name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_fixture ?hot ?rules ?claims ~path name =
  match Driver.lint_source ?hot ?rules ?claims ~path (read_fixture name) with
  | Ok findings -> findings
  | Error pe -> Alcotest.failf "fixture %s failed to typecheck: %s" name pe.Report.pe_message

let rule_ids findings = List.map (fun f -> Rule.id f.Finding.rule) findings

(* ------------------------------------------------------------------ *)
(* Fixtures: one rule each                                             *)
(* ------------------------------------------------------------------ *)

let test_fixture_lc001 () =
  let fs = lint_fixture ~path:"lib/misc/fake.ml" "lc001.ml" in
  Alcotest.(check (list string)) "exactly one LC001" [ "LC001" ] (rule_ids fs);
  checks "context is the binding" "bump" (List.hd fs).Finding.context

let test_fixture_lc002 () =
  let fs = lint_fixture ~path:"lib/parallel/fake.ml" "lc002.ml" in
  Alcotest.(check (list string)) "exactly one LC002" [ "LC002" ] (rule_ids fs);
  (* The same file under a cold path is silent: the rule is scoped. *)
  checki "cold path silent" 0
    (List.length (lint_fixture ~path:"lib/analysis/fake.ml" "lc002.ml"))

let test_fixture_lc003 () =
  let fs = lint_fixture ~path:"lib/obs/fake.ml" "lc003.ml" in
  Alcotest.(check (list string))
    "type decl + setfield, both LC003" [ "LC003"; "LC003" ] (rule_ids fs);
  checki "cold scope silent" 0
    (List.length (lint_fixture ~path:"lib/dict/fake.ml" "lc003.ml"))

let test_fixture_lc004 () =
  let hot =
    {
      Hotpath.default with
      Hotpath.manifest = [ ("lib/misc/hot.ml", [ "probe_loop" ]) ];
    }
  in
  let fs = lint_fixture ~hot ~path:"lib/misc/hot.ml" "lc004.ml" in
  Alcotest.(check (list string)) "exactly one LC004" [ "LC004" ] (rule_ids fs);
  checki "off-manifest silent" 0
    (List.length (lint_fixture ~hot ~path:"lib/misc/cold.ml" "lc004.ml"))

let test_fixture_lc005 () =
  let fs = lint_fixture ~path:"lib/misc/unsafe.ml" "lc005.ml" in
  Alcotest.(check (list string)) "exactly one LC005" [ "LC005" ] (rule_ids fs)

(* LC006: the call graph refutes an owner= claim with a planted second
   writer, and verifies the claim once the owner list covers it. *)
let test_fixture_lc006 () =
  let claim owners =
    match
      Baseline.parse ~path:"b"
        (Printf.sprintf "LC003 lib/dynamic/fake6.ml apply owner=%s -- builder-owned" owners)
    with
    | Ok b -> b.Baseline.entries
    | Error e -> Alcotest.failf "claim parse failed: %s" e
  in
  let fs =
    lint_fixture ~rules:[ Rule.LC006 ] ~claims:(claim "Fake6.serve")
      ~path:"lib/dynamic/fake6.ml" "lc006.ml"
  in
  Alcotest.(check (list string)) "exactly one LC006" [ "LC006" ] (rule_ids fs);
  checks "violation surfaces at the unaccounted caller" "sneak"
    (List.hd fs).Finding.context;
  checki "claim covering every path verifies clean" 0
    (List.length
       (lint_fixture ~rules:[ Rule.LC006 ]
          ~claims:(claim "Fake6.serve,Fake6.sneak")
          ~path:"lib/dynamic/fake6.ml" "lc006.ml"))

(* LC007: a plain published-state read fires only when no pin dominates
   it — locally or through every caller path. *)
let lc007_hot =
  {
    Hotpath.default with
    Hotpath.published_types = [ "Fake7.snapshot" ];
    pin_functions = [ "Fake7.pin" ];
  }

let test_fixture_lc007 () =
  let fs =
    lint_fixture ~hot:lc007_hot ~rules:[ Rule.LC007 ] ~path:"lib/dynamic/fake7.ml"
      "lc007.ml"
  in
  Alcotest.(check (list string)) "exactly one LC007" [ "LC007" ] (rule_ids fs);
  checks "the unpinned read is the one flagged" "bad" (List.hd fs).Finding.context

(* LC008: the manifest closes over the call graph — an allocation two
   calls below the root is flagged even though LC004's direct audit of
   the root never sees it. This is the manifest-drift regression: before
   the call-graph rules, [deep] had to be listed by hand or was missed. *)
let test_fixture_lc008 () =
  let hot =
    {
      Hotpath.default with
      Hotpath.manifest = [ ("lib/misc/hot8.ml", [ "probe" ]) ];
    }
  in
  let fs = lint_fixture ~hot ~rules:[ Rule.LC008 ] ~path:"lib/misc/hot8.ml" "lc008.ml" in
  Alcotest.(check (list string)) "closure + combinator, both LC008" [ "LC008"; "LC008" ]
    (rule_ids fs);
  List.iter (fun f -> checks "both sites in the deep helper" "deep" f.Finding.context) fs;
  checkb "closure carries a words estimate" true
    (List.exists (fun f -> f.Finding.words <> None) fs);
  (* LC004 alone still misses it: the drift the closure rule closes. *)
  checki "LC004 direct audit is blind to the helper" 0
    (List.length (lint_fixture ~hot ~rules:[ Rule.LC004 ] ~path:"lib/misc/hot8.ml" "lc008.ml"))

(* A manifest entry that names no definition roots an empty audit: it
   must surface as one finding naming it. *)
let test_fixture_manifest_gap () =
  let hot =
    { Hotpath.default with Hotpath.manifest = [ ("lib/misc/hot9.ml", [ "probe"; "ghost" ]) ] }
  in
  let fs = lint_fixture ~hot ~path:"lib/misc/hot9.ml" "manifest.ml" in
  Alcotest.(check (list string)) "exactly one LC004" [ "LC004" ] (rule_ids fs);
  checks "the finding names the missing function" "ghost" (List.hd fs).Finding.context;
  (* Over a tree without the manifest's file, the file is what is named. *)
  match Lc_lint.Callgraph.run ~hot ~rules:Rule.all ~claims:[] ~files:[] [] with
  | [ f ] -> checks "the finding names the missing file" "lib/misc/hot9.ml" f.Finding.file
  | fs -> Alcotest.failf "want one finding for the missing file, got %d" (List.length fs)

let test_fixture_clean () =
  checki "clean fixture, hot shared path" 0
    (List.length (lint_fixture ~path:"lib/parallel/clean.ml" "clean.ml"))

let test_rules_filter () =
  (* lc003.ml under shared scope fires LC003 only when LC003 is run. *)
  let content = read_fixture "lc003.ml" in
  let lint rules =
    match Driver.lint_source ~rules ~path:"lib/obs/fake.ml" content with
    | Ok fs -> List.length fs
    | Error _ -> Alcotest.fail "parse failed"
  in
  checki "LC003 subset fires" 2 (lint [ Rule.LC003 ]);
  checki "disjoint subset silent" 0 (lint [ Rule.LC001; Rule.LC005 ])

let test_parse_failure () =
  match Driver.lint_source ~path:"lib/misc/broken.ml" "let = (" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error pe -> checks "error carries the logical path" "lib/misc/broken.ml" pe.Report.pe_file

let test_typecheck_failure () =
  (* The pipeline is typed: a file that parses but does not typecheck is
     a parse error, not a silent skip. *)
  match Driver.lint_source ~path:"lib/misc/illtyped.ml" "let x : int = \"s\"" with
  | Ok _ -> Alcotest.fail "expected a type error"
  | Error pe -> checks "error carries the logical path" "lib/misc/illtyped.ml" pe.Report.pe_file

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let jan1 = { Baseline.y = 2026; m = 1; d = 1 }

let baseline_of lines =
  match Baseline.parse ~path:"test-baseline" (String.concat "\n" lines) with
  | Ok b -> b
  | Error e -> Alcotest.failf "baseline parse failed: %s" e

let fake_finding =
  Finding.make ~rule:Rule.LC001 ~file:"lib/misc/fake.ml" ~line:5 ~col:2 ~context:"bump"
    ~message:"planted"

let test_baseline_suppresses () =
  let b =
    baseline_of
      [ "# comment"; ""; "LC001 lib/misc/fake.ml bump -- one-way flag, single writer" ]
  in
  let results, summary =
    Driver.apply_baseline ~baseline:b ~rules:Rule.all ~today:jan1 [ fake_finding ]
  in
  checkb "suppressed" true ((List.hd results).Report.suppressed <> None);
  let s = Option.get summary in
  checki "used" 1 s.Report.used;
  checki "unused" 0 (List.length s.Report.unused);
  (* Line numbers in the finding don't matter: same entry suppresses the
     finding after it drifts. *)
  let drifted = { fake_finding with Finding.line = 500 } in
  let results, _ =
    Driver.apply_baseline ~baseline:b ~rules:Rule.all ~today:jan1 [ drifted ]
  in
  checkb "line drift still suppressed" true ((List.hd results).Report.suppressed <> None)

let test_baseline_expiry () =
  let b =
    baseline_of [ "LC001 lib/misc/fake.ml bump expires=2025-12-31 -- temporary" ]
  in
  let results, summary =
    Driver.apply_baseline ~baseline:b ~rules:Rule.all ~today:jan1 [ fake_finding ]
  in
  checkb "expired entry no longer suppresses" true
    ((List.hd results).Report.suppressed = None);
  checki "reported as expired" 1 (List.length (Option.get summary).Report.expired);
  (* Same entry before its expiry date still works. *)
  let earlier = { Baseline.y = 2025; m = 6; d = 1 } in
  let results, _ =
    Driver.apply_baseline ~baseline:b ~rules:Rule.all ~today:earlier [ fake_finding ]
  in
  checkb "pre-expiry suppresses" true ((List.hd results).Report.suppressed <> None)

let test_baseline_unused_and_scope () =
  let b =
    baseline_of
      [
        "LC001 lib/misc/fake.ml bump -- matches";
        "LC005 lib/misc/other.ml gone -- stale entry";
      ]
  in
  let _, summary =
    Driver.apply_baseline ~baseline:b ~rules:Rule.all ~today:jan1 [ fake_finding ]
  in
  checki "stale entry reported unused" 1 (List.length (Option.get summary).Report.unused);
  (* Under --rules LC001 the LC005 entry had no chance to match: exempt. *)
  let _, summary =
    Driver.apply_baseline ~baseline:b ~rules:[ Rule.LC001 ] ~today:jan1 [ fake_finding ]
  in
  checki "out-of-run entries not unused" 0 (List.length (Option.get summary).Report.unused)

(* Baseline grammar v2: owner=/protocol= tags parse in any order,
   round-trip through entry_to_string, and bad tags fail loudly. *)
let test_baseline_v2_tags () =
  let b =
    baseline_of
      [
        "LC003 lib/dynamic/epoch.ml insert owner=Engine.serve_dynamic,Opstream.apply \
         protocol=epoch expires=2027-06-30 -- builder-owned levels";
      ]
  in
  let e = List.hd b.Baseline.entries in
  Alcotest.(check (list string))
    "owners parsed" [ "Engine.serve_dynamic"; "Opstream.apply" ] e.Baseline.owner;
  checks "protocol parsed" "epoch" (Option.get e.Baseline.protocol);
  checkb "tagged" true (Baseline.tagged e);
  checks "round-trips"
    "LC003 lib/dynamic/epoch.ml insert owner=Engine.serve_dynamic,Opstream.apply \
     protocol=epoch expires=2027-06-30"
    (Baseline.entry_to_string e);
  (* Order-insensitive between context and ' -- '. *)
  let b2 =
    baseline_of [ "LC003 lib/a.ml f protocol=seqlock owner=W.publish -- reordered" ]
  in
  let e2 = List.hd b2.Baseline.entries in
  Alcotest.(check (list string)) "owner after protocol" [ "W.publish" ] e2.Baseline.owner;
  checks "protocol" "seqlock" (Option.get e2.Baseline.protocol)

let test_baseline_untagged_warns () =
  let b =
    baseline_of
      [
        "LC003 lib/a.ml f protocol=domain-local -- typed claim";
        "LC003 lib/b.ml g -- prose only";
      ]
  in
  let _, summary = Driver.apply_baseline ~baseline:b ~rules:Rule.all ~today:jan1 [] in
  let s = Option.get summary in
  checki "one prose-only entry warned" 1 (List.length s.Report.untagged);
  checkb "the untagged one is the proseful one" true
    (match s.Report.untagged with [ (text, _) ] -> text = "LC003 lib/b.ml g" | _ -> false)

let test_baseline_rejects_garbage () =
  let bad lines =
    match Baseline.parse ~path:"b" (String.concat "\n" lines) with
    | Ok _ -> Alcotest.failf "expected parse failure for %s" (String.concat "|" lines)
    | Error _ -> ()
  in
  bad [ "LC001 lib/a.ml ctx" ] (* no justification *);
  bad [ "LC001 lib/a.ml ctx --  " ] (* empty justification *);
  bad [ "LC999 lib/a.ml ctx -- nope" ] (* unknown rule *);
  bad [ "LC001 lib/a.ml ctx expires=garbage -- x" ] (* bad date *);
  bad [ "LC003 lib/a.ml ctx owner=lowercase -- x" ] (* not Module.fn *);
  bad [ "LC003 lib/a.ml ctx owner=NoDot -- x" ] (* no function part *);
  bad [ "LC003 lib/a.ml ctx protocol=vibes -- x" ] (* unknown protocol *);
  bad [ "LC003 lib/a.ml ctx owner=A.f owner=B.g -- x" ] (* duplicate tag *)

(* ------------------------------------------------------------------ *)
(* Report JSON round-trip                                              *)
(* ------------------------------------------------------------------ *)

let sample_report () =
  let b =
    baseline_of
      [
        "LC001 lib/misc/fake.ml bump protocol=setup-once expires=2027-06-30 -- single writer";
        "LC005 lib/misc/other.ml gone -- stale";
      ]
  in
  let findings =
    [
      fake_finding;
      Finding.make ~rule:Rule.LC005 ~file:"lib/misc/unsafe.ml" ~line:4 ~col:30
        ~context:"coerce" ~message:"Obj.magic defeats the type system";
      {
        (Finding.make ~rule:Rule.LC008 ~file:"lib/misc/hot8.ml" ~line:8 ~col:14
           ~context:"deep" ~message:"closure on the hot path from Hot8.probe")
        with
        Finding.words = Some 3;
      };
    ]
  in
  let results, baseline =
    Driver.apply_baseline ~baseline:b ~rules:Rule.all ~today:jan1 findings
  in
  {
    Report.root = ".";
    files_scanned = 2;
    rules = Rule.all;
    results;
    parse_errors = [];
    baseline;
  }

let test_report_roundtrip () =
  let r = sample_report () in
  let encoded = Json.to_string (Report.to_json r) in
  match Json.parse encoded with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok doc -> (
    match Report.of_json doc with
    | Error e -> Alcotest.failf "report JSON does not decode: %s" e
    | Ok r' ->
      checks "re-encoding is byte-identical" encoded (Json.to_string (Report.to_json r'));
      checki "two active survive" 2 (List.length (Report.active r'));
      checki "one suppressed survives" 1
        (List.length r'.Report.results - List.length (Report.active r'));
      checkb "words survives the round-trip" true
        (List.exists (fun a -> a.Report.finding.Finding.words = Some 3) r'.Report.results))

let test_report_rejects_lies () =
  let r = sample_report () in
  let doc =
    match Json.parse (Json.to_string (Report.to_json r)) with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let tamper key value = function
    | Json.Obj kvs ->
      Json.Obj (List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) kvs)
    | j -> j
  in
  (* A summary whose counts disagree with the findings list is invalid. *)
  let lied =
    tamper "summary"
      (Json.Obj
         [
           ("active", Json.Int 0);
           ("suppressed", Json.Int 0);
           ("parse_errors", Json.Int 0);
           ("exit_code", Json.Int 0);
         ])
      doc
  in
  checkb "inconsistent summary rejected" true (Result.is_error (Report.of_json lied));
  let wrong_schema = tamper "schema" (Json.String "bench") doc in
  checkb "wrong schema rejected" true (Result.is_error (Report.of_json wrong_schema));
  let wrong_version = tamper "version" (Json.Int 99) doc in
  checkb "unknown version rejected" true (Result.is_error (Report.of_json wrong_version));
  (* A list member must be an array: an object or a string in its place
     is a malformed report, not an empty list. (The findings case keeps
     a summary that agrees with an empty list, so only the shape is
     wrong.) *)
  let not_a_list key value base =
    checkb (Printf.sprintf "non-array %s rejected" key) true
      (Result.is_error (Report.of_json (tamper key value base)))
  in
  not_a_list "rules" (Json.Obj [ ("x", Json.Int 1) ]) doc;
  not_a_list "findings" (Json.Obj [ ("rule", Json.String "LC001") ]) lied;
  not_a_list "parse_errors" (Json.String "none") doc;
  let baseline = Option.get (Json.member "baseline" doc) in
  checkb "non-array baseline unused rejected" true
    (Result.is_error
       (Report.of_json (tamper "baseline" (tamper "unused" (Json.Int 5) baseline) doc)))

(* ------------------------------------------------------------------ *)
(* SARIF export                                                        *)
(* ------------------------------------------------------------------ *)

let test_sarif_valid_and_faithful () =
  let r = sample_report () in
  let sarif = Sarif.of_report r in
  (match Sarif.validate sarif with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-produced SARIF invalid: %s" e);
  (* Survives a serialisation round-trip too. *)
  (match Json.parse (Json.to_string sarif) with
  | Ok doc -> (
    match Sarif.validate doc with
    | Ok () -> ()
    | Error e -> Alcotest.failf "re-parsed SARIF invalid: %s" e)
  | Error e -> Alcotest.failf "SARIF does not parse: %s" e);
  (* One result per finding; the suppressed one carries a suppression. *)
  let runs = match Json.member "runs" sarif with Some (Json.List l) -> l | _ -> [] in
  let results =
    match Json.member "results" (List.hd runs) with Some (Json.List l) -> l | _ -> []
  in
  checki "one result per finding" 3 (List.length results);
  checki "exactly one suppressed result" 1
    (List.length
       (List.filter (fun res -> Json.member "suppressions" res <> None) results))

let test_sarif_validator_rejects () =
  let reject label doc =
    checkb label true (Result.is_error (Sarif.validate doc))
  in
  reject "wrong version"
    (Json.Obj [ ("version", Json.String "2.0.0"); ("runs", Json.List []) ]);
  reject "empty runs" (Json.Obj [ ("version", Json.String "2.1.0"); ("runs", Json.List []) ]);
  let run_with_result res =
    Json.Obj
      [
        ("version", Json.String "2.1.0");
        ( "runs",
          Json.List
            [
              Json.Obj
                [
                  ( "tool",
                    Json.Obj
                      [
                        ( "driver",
                          Json.Obj
                            [
                              ("name", Json.String "x");
                              ( "rules",
                                Json.List [ Json.Obj [ ("id", Json.String "LC001") ] ] );
                            ] );
                      ] );
                  ("results", Json.List [ res ]);
                ];
            ] );
      ]
  in
  reject "undeclared ruleId"
    (run_with_result
       (Json.Obj
          [
            ("ruleId", Json.String "LC999");
            ("message", Json.Obj [ ("text", Json.String "m") ]);
            ("locations", Json.List []);
          ]));
  reject "0-based startLine"
    (run_with_result
       (Json.Obj
          [
            ("ruleId", Json.String "LC001");
            ("message", Json.Obj [ ("text", Json.String "m") ]);
            ( "locations",
              Json.List
                [
                  Json.Obj
                    [
                      ( "physicalLocation",
                        Json.Obj
                          [
                            ( "artifactLocation",
                              Json.Obj [ ("uri", Json.String "lib/a.ml") ] );
                            ("region", Json.Obj [ ("startLine", Json.Int 0) ]);
                          ] );
                    ];
                ] );
          ]))

(* ------------------------------------------------------------------ *)
(* .cmt error handling                                                 *)
(* ------------------------------------------------------------------ *)

let with_temp_root f =
  let dir = Filename.temp_file "lclint" "" in
  Sys.remove dir;
  let rec mkdirs d =
    if not (Sys.file_exists d) then (
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755)
  in
  mkdirs (Filename.concat dir "_build/default/lib");
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_missing_cmts_exit_2 () =
  with_temp_root @@ fun dir ->
  (* Empty _build: nothing the typed pipeline can vouch for. *)
  let r = Driver.run ~build:false ~root:dir () in
  checki "no .cmt set is a parse error" 2 (Report.exit_code r);
  checkb "the error names the search root" true
    (match r.Report.parse_errors with
    | [ pe ] -> pe.Report.pe_file = "_build/default/lib"
    | _ -> false)

let test_corrupt_cmt_exit_2 () =
  with_temp_root @@ fun dir ->
  let bad = Filename.concat dir "_build/default/lib/garbage.cmt" in
  let oc = open_out_bin bad in
  output_string oc "not a cmt file";
  close_out oc;
  let r = Driver.run ~build:false ~root:dir () in
  checki "corrupt .cmt exits 2" 2 (Report.exit_code r);
  checkb "the error names the file" true
    (List.exists
       (fun pe -> pe.Report.pe_file = "_build/default/lib/garbage.cmt")
       r.Report.parse_errors)

(* ------------------------------------------------------------------ *)
(* Exit codes and rule parsing                                         *)
(* ------------------------------------------------------------------ *)

let test_exit_codes () =
  let base = sample_report () in
  checki "active findings exit 1" 1 (Report.exit_code base);
  let all_clean =
    { base with Report.results = List.filter (fun a -> a.Report.suppressed <> None) base.results }
  in
  checki "fully suppressed exit 0" 0 (Report.exit_code all_clean);
  let broken =
    {
      base with
      Report.parse_errors =
        [ { Report.pe_file = "lib/x.ml"; pe_line = 1; pe_col = 0; pe_message = "boom" } ];
    }
  in
  checki "parse errors dominate: exit 2" 2 (Report.exit_code broken)

let test_rule_parse_list () =
  (match Rule.parse_list "LC005,LC001" with
  | Ok rs ->
    Alcotest.(check (list string)) "canonical order, both present" [ "LC001"; "LC005" ]
      (List.map Rule.id rs)
  | Error e -> Alcotest.failf "parse_list failed: %s" e);
  (match Rule.parse_list "LC006,LC007,LC008" with
  | Ok rs ->
    Alcotest.(check (list string)) "call-graph rules parse" [ "LC006"; "LC007"; "LC008" ]
      (List.map Rule.id rs)
  | Error e -> Alcotest.failf "parse_list failed: %s" e);
  checkb "unknown rule rejected" true (Result.is_error (Rule.parse_list "LC001,LC999"));
  checkb "empty list rejected" true (Result.is_error (Rule.parse_list " , "))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "lc001" `Quick test_fixture_lc001;
          Alcotest.test_case "lc002" `Quick test_fixture_lc002;
          Alcotest.test_case "lc003" `Quick test_fixture_lc003;
          Alcotest.test_case "lc004" `Quick test_fixture_lc004;
          Alcotest.test_case "lc005" `Quick test_fixture_lc005;
          Alcotest.test_case "lc006 ownership" `Quick test_fixture_lc006;
          Alcotest.test_case "lc007 pin domination" `Quick test_fixture_lc007;
          Alcotest.test_case "lc008 manifest closure" `Quick test_fixture_lc008;
          Alcotest.test_case "manifest names a missing definition" `Quick
            test_fixture_manifest_gap;
          Alcotest.test_case "clean" `Quick test_fixture_clean;
          Alcotest.test_case "rules filter" `Quick test_rules_filter;
          Alcotest.test_case "parse failure" `Quick test_parse_failure;
          Alcotest.test_case "typecheck failure" `Quick test_typecheck_failure;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "suppresses by context" `Quick test_baseline_suppresses;
          Alcotest.test_case "expiry" `Quick test_baseline_expiry;
          Alcotest.test_case "unused accounting" `Quick test_baseline_unused_and_scope;
          Alcotest.test_case "v2 tags round-trip" `Quick test_baseline_v2_tags;
          Alcotest.test_case "prose-only entries warn" `Quick test_baseline_untagged_warns;
          Alcotest.test_case "rejects garbage" `Quick test_baseline_rejects_garbage;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "rejects inconsistent documents" `Quick test_report_rejects_lies;
          Alcotest.test_case "sarif valid and faithful" `Quick test_sarif_valid_and_faithful;
          Alcotest.test_case "sarif validator rejects" `Quick test_sarif_validator_rejects;
          Alcotest.test_case "missing cmts exit 2" `Quick test_missing_cmts_exit_2;
          Alcotest.test_case "corrupt cmt exits 2" `Quick test_corrupt_cmt_exit_2;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "rule list parsing" `Quick test_rule_parse_list;
        ] );
    ]
