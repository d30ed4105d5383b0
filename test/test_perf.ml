(* Tier-1 tests for the perf-trajectory subsystem: strict artifact
   round-trips and schema validation, suite reconciliation against the
   engine's ground truth, differential analysis on the committed
   fixtures (a planted 2x regression must be flagged; a self-diff must
   stay silent), the flight-recorder journal rings, and the
   alert-triggered postmortem path end to end. *)

module Artifact = Lc_perf.Artifact
module Scaling = Lc_perf.Scaling
module Usl = Lc_analysis.Usl
module Suite = Lc_perf.Suite
module Diff = Lc_perf.Diff
module Postmortem = Lc_perf.Postmortem
module Select = Lc_perf.Select
module Journal = Lc_obs.Journal
module Window = Lc_obs.Window
module Engine = Lc_parallel.Engine
module Rng = Lc_prim.Rng
module Keyset = Lc_workload.Keyset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains needle hay =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let fp =
  {
    Artifact.ocaml_version = "5.1.1";
    os_type = "Unix";
    word_size = 64;
    cores = 2;
    git_rev = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef";
    seed = 42;
    clock_overhead_ns = 25.5;
    probe_sample_period = 64;
    created_unix = 1754000000.0;
  }

let ci mean lo hi samples = { Artifact.mean; lo; hi; samples }

let entry ?(structure = "lc") ?(workload = "pos") ?(domains = 2) ?ns_per_update ?write_amp
    ?minor_words_per_query ?major_collections ~ns ~probes () =
  {
    Artifact.structure;
    workload;
    domains;
    queries_per_domain = 1000;
    trials = List.length ns.Artifact.samples;
    ns_per_query = ns;
    probes_per_query = probes;
    p50_ns = 90.0;
    p99_ns = 140.0;
    hotspot_ratio = 0.5;
    queries = 4000;
    probes = 60000;
    ns_per_update;
    write_amp;
    minor_words_per_query;
    major_collections;
  }

let small_artifact () =
  {
    Artifact.fingerprint = fp;
    entries =
      [
        entry
          ~ns:(ci 100.0 98.0 102.0 [ 100.0; 102.0; 98.0 ])
          ~probes:(ci 15.0 15.0 15.0 [ 15.0; 15.0; 15.0 ])
          ();
        entry ~structure:"fks-norepl"
          ~ns:(ci 50.25 48.0 52.5 [ 50.0; 51.0; 49.75 ])
          ~probes:(ci 4.0 4.0 4.0 [ 4.0; 4.0; 4.0 ])
          ();
      ];
  }

(* ------------------------------------------------------------------ *)
(* Artifact                                                             *)
(* ------------------------------------------------------------------ *)

let test_artifact_roundtrip () =
  let base = small_artifact () in
  (* A dynamic entry carrying the optional update-path fields sits next
     to entries without them: the codec must round-trip both shapes,
     and reading back an entry with no such fields must yield [None]
     (the back-compat path for artifacts written before the update
     observatory). *)
  let dyn =
    entry ~structure:"lc-dyn" ~workload:"rw:0.90"
      ~ns_per_update:(ci 800.0 750.0 850.0 [ 780.0; 800.0; 820.0 ])
      ~write_amp:6.5
      ~ns:(ci 120.0 118.0 122.0 [ 119.0; 120.0; 121.0 ])
      ~probes:(ci 9.0 9.0 9.0 [ 9.0; 9.0; 9.0 ])
      ()
  in
  let art = { base with Artifact.entries = base.Artifact.entries @ [ dyn ] } in
  match Artifact.of_string (Artifact.to_string art) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok art' ->
    checkb "round-trip preserves the artifact exactly" true (art = art');
    let first = List.hd art'.Artifact.entries in
    checkb "static entries read back without update fields" true
      (first.Artifact.ns_per_update = None && first.Artifact.write_amp = None)

let test_artifact_validation () =
  let reject what s =
    match Artifact.of_string s with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error _ -> ()
  in
  reject "wrong schema" {|{"schema":"nope","version":1}|};
  reject "future version"
    {|{"schema":"lowcon-bench","version":99,"fingerprint":{},"entries":[]}|};
  reject "missing entries"
    {|{"schema":"lowcon-bench","version":1,"fingerprint":{"ocaml_version":"5.1.1","os_type":"Unix","word_size":64,"cores":2,"git_rev":"x","seed":1,"clock_overhead_ns":1.0,"probe_sample_period":64,"created_unix":0.0}}|};
  reject "not JSON" "BENCH";
  (* Error messages carry enough context to locate the problem. *)
  (match Artifact.of_string {|{"schema":"nope","version":1}|} with
  | Error e -> checkb "error names the schema" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "accepted")

let test_artifact_strict_rejects_nonfinite () =
  let art = small_artifact () in
  let bad =
    {
      art with
      Artifact.entries =
        [ entry ~ns:(ci Float.nan 0.0 1.0 [ 1.0 ]) ~probes:(ci 1.0 1.0 1.0 [ 1.0 ]) () ];
    }
  in
  match Artifact.to_string bad with
  | exception Failure msg ->
    checkb "failure names the JSON path" true
      (String.length msg > 0
      &&
      let rec contains i =
        i + 4 <= String.length msg && (String.sub msg i 4 = "mean" || contains (i + 1))
      in
      contains 0)
  | _ -> Alcotest.fail "NaN was serialised"

let with_temp_dir f =
  let dir = Filename.temp_file "lcperf" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_artifact_next_path () =
  with_temp_dir @@ fun dir ->
  checks "first artifact is BENCH_0"
    (Filename.concat dir "BENCH_0.json")
    (Artifact.next_path ~dir);
  let art = small_artifact () in
  Artifact.write ~path:(Filename.concat dir "BENCH_0.json") art;
  Artifact.write ~path:(Filename.concat dir "BENCH_3.json") art;
  checks "numbering continues past the max"
    (Filename.concat dir "BENCH_4.json")
    (Artifact.next_path ~dir);
  (* The written file is a valid artifact. *)
  match Artifact.load (Filename.concat dir "BENCH_0.json") with
  | Ok a -> checki "written artifact loads" 2 (List.length a.Artifact.entries)
  | Error e -> Alcotest.failf "load failed: %s" e

(* A directory is a read error, not an exception. *)
let test_artifact_load_directory () =
  with_temp_dir @@ fun dir ->
  match Artifact.load dir with
  | Ok _ -> Alcotest.fail "a directory loaded as an artifact"
  | Error e -> checkb "error names the path" true (String.length e >= String.length dir)

(* ------------------------------------------------------------------ *)
(* Suite                                                                *)
(* ------------------------------------------------------------------ *)

let tiny_spec =
  {
    Suite.structures = [ "lc" ];
    workloads = [ "pos" ];
    domain_counts = [ 2 ];
    queries_per_domain = 200;
    trials = 2;
    n = 64;
    (* No mixed axis: the static tests below expect exactly one entry. *)
    rw_workloads = [];
    rw_domain_counts = [];
    ops_per_domain = 1;
  }

(* Suite.run raises if any trial's telemetry counters disagree with the
   engine's result totals, so completing at all is the reconciliation
   check; the entry's totals must then add up across trials. *)
let test_suite_reconciles () =
  let art = Suite.run ~seed:3 tiny_spec in
  match art.Artifact.entries with
  | [ e ] ->
    checki "queries = trials * domains * queries_per_domain" (2 * 2 * 200) e.Artifact.queries;
    checkb "probes accumulated" true (e.Artifact.probes > 0);
    checki "one sample per trial" 2 (List.length e.Artifact.ns_per_query.Artifact.samples);
    checkb "CI ordered" true
      (e.Artifact.ns_per_query.Artifact.lo <= e.Artifact.ns_per_query.Artifact.hi);
    checki "fingerprint records the seed" 3 art.Artifact.fingerprint.Artifact.seed;
    checki "fingerprint records the sampling period" Engine.probe_sample_period
      art.Artifact.fingerprint.Artifact.probe_sample_period
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

(* The mixed axis rides behind the static grid: entries keep their
   order (static first), the mixed entry is keyed by the dynamic
   structure name, and completing at all means both reconciliations
   (telemetry vs result, epoch tallies vs reader probes) held. *)
let test_suite_mixed_axis () =
  let spec =
    { tiny_spec with Suite.rw_workloads = [ "rw:0.80" ]; rw_domain_counts = [ 2 ];
      ops_per_domain = 300 }
  in
  let art = Suite.run ~seed:5 spec in
  match art.Artifact.entries with
  | [ stat; mixed ] ->
    checks "static entry first" "lc" stat.Artifact.structure;
    checks "mixed entry keyed by the dynamic name" Lc_perf.Select.dynamic_name
      mixed.Artifact.structure;
    checks "mixed workload spec preserved" "rw:0.80" mixed.Artifact.workload;
    checki "queries_per_domain records the op budget" 300 mixed.Artifact.queries_per_domain;
    checkb "queries counted across trials" true (mixed.Artifact.queries > 0);
    checkb "probes accumulated" true (mixed.Artifact.probes > 0)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let test_suite_probes_deterministic_in_seed () =
  (* Binary search probes depend on where each queried key lands, so
     probe totals fingerprint the sampled keys and query batches; the
     low-contention structure would not work here (its positive lookups
     cost the same number of probes whatever the seed). *)
  let spec = { tiny_spec with Suite.structures = [ "binary" ] } in
  let probes art =
    List.map (fun (e : Artifact.entry) -> e.Artifact.probes) art.Artifact.entries
  in
  let a = Suite.run ~seed:11 spec and b = Suite.run ~seed:11 spec in
  checkb "same seed, same probe totals" true (probes a = probes b);
  let c = Suite.run ~seed:12 spec in
  (* Different seed samples different keys and batches; identical probe
     totals would mean the seed is not actually plumbed through. *)
  checkb "different seed changes the workload" true (probes a <> probes c)

(* ------------------------------------------------------------------ *)
(* Diff                                                                 *)
(* ------------------------------------------------------------------ *)

(* The dune deps copy fixtures/ next to the test executable; resolve
   against the executable so `dune exec` from the root also works. *)
let fixture_path name =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "fixtures") name

let load_fixture name =
  match Artifact.load (fixture_path name) with
  | Ok a -> a
  | Error e -> Alcotest.failf "fixture %s: %s" name e

let test_diff_flags_planted_regression () =
  let a = load_fixture "bench_a.json" and b = load_fixture "bench_b_regressed.json" in
  let r = Diff.compare_artifacts a b in
  checkb "regression detected" true (Diff.has_regression r);
  checki "exactly one configuration regressed" 1 r.Diff.regressions;
  let lc = List.find (fun row -> row.Diff.key = ("lc", "pos", 2)) r.Diff.rows in
  checkb "ns verdict is regression" true (lc.Diff.ns.Diff.verdict = Diff.Regression);
  checkb "MW-U used the exact null" true
    (lc.Diff.ns.Diff.method_ = Lc_analysis.Sigtest.Exact);
  checkb "p below alpha" true (lc.Diff.ns.Diff.p < 0.05);
  checkb "CIs disjoint" true lc.Diff.ns.Diff.disjoint;
  checkb "doubling reported" true (Float.abs (lc.Diff.ns.Diff.delta_pct -. 100.0) < 1.0);
  checkb "identical probe counts stay quiet" true
    (lc.Diff.probes.Diff.verdict = Diff.No_change);
  let fks = List.find (fun row -> row.Diff.key = ("fks-norepl", "pos", 2)) r.Diff.rows in
  checkb "untouched configuration stays quiet" true
    (fks.Diff.ns.Diff.verdict = Diff.No_change);
  (* Reversed direction reads as an improvement, not a regression. *)
  let r' = Diff.compare_artifacts b a in
  checki "no regression in reverse" 0 r'.Diff.regressions;
  checki "improvement in reverse" 1 r'.Diff.improvements

let test_diff_self_is_silent () =
  let a = load_fixture "bench_a.json" in
  let r = Diff.compare_artifacts a a in
  checki "no regressions against self" 0 r.Diff.regressions;
  checki "no improvements against self" 0 r.Diff.improvements;
  List.iter
    (fun row ->
      checkb "every metric reports no change" true
        (row.Diff.ns.Diff.verdict = Diff.No_change
        && row.Diff.probes.Diff.verdict = Diff.No_change);
      (* The normal-approximation CDF is accurate to ~1e-7, so p lands
         that close to 1 rather than exactly on it. *)
      Alcotest.check (Alcotest.float 1e-6) "self-diff p-value is 1" 1.0 row.Diff.ns.Diff.p)
    r.Diff.rows

let test_diff_unmatched_and_render () =
  let a = small_artifact () in
  let b = { a with Artifact.entries = [ List.hd a.Artifact.entries ] } in
  let r = Diff.compare_artifacts a b in
  checki "matched rows" 1 (List.length r.Diff.rows);
  checkb "missing config reported" true (r.Diff.only_in_a = [ ("fks-norepl", "pos", 2) ]);
  let rendered = Diff.render r in
  let contains needle hay =
    let rec go i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  checkb "render names the missing config" true (contains "only in A" rendered);
  checkb "render names the key" true (contains "lc/pos@2" rendered);
  (match Lc_obs.Json.to_string_strict (Diff.to_json r) with
  | Ok s -> checkb "report JSON parses back" true (Result.is_ok (Lc_obs.Json.parse s))
  | Error _ -> Alcotest.fail "report JSON had non-finite values");
  checkb "prometheus gauges exported" true
    (contains "perf_diff_regressions" (Diff.prometheus r))

(* The diff document decodes to the same report, re-encodes to the same
   bytes, and rejects counts that disagree with its rows. *)
let test_diff_document_roundtrip () =
  let r =
    Diff.compare_artifacts (load_fixture "bench_a.json") (load_fixture "bench_b_regressed.json")
  in
  let text = Lc_obs.Codec.to_string_strict Diff.document r in
  (match Lc_obs.Codec.of_string Diff.document text with
  | Error e -> Alcotest.failf "diff document does not decode: %s" e
  | Ok r' ->
    checkb "decodes to the same report" true (r = r');
    checks "re-encodes to the same bytes" text (Lc_obs.Codec.to_string_strict Diff.document r'));
  match
    Lc_obs.Codec.of_json Diff.document
      (Diff.to_json { r with Diff.regressions = r.Diff.regressions + 1 })
  with
  | Ok _ -> Alcotest.fail "a regression count that disagrees with the rows was accepted"
  | Error e -> checkb "error names the count" true (contains "regressions" e)

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

let test_journal_ring_overwrite () =
  let j = Journal.create ~writers:2 ~capacity:4 in
  for i = 1 to 6 do
    Journal.record j ~writer:0 (Journal.Publish { queries = i })
  done;
  checki "total counts every record" 6 (Journal.total_recorded j);
  checki "overwritten events are dropped" 2 (Journal.dropped j);
  let es = Journal.events j in
  checki "ring retains capacity events" 4 (List.length es);
  let queries =
    List.filter_map
      (function { Journal.kind = Journal.Publish { queries }; _ } -> Some queries | _ -> None)
      es
  in
  checkb "newest events win" true (queries = [ 3; 4; 5; 6 ]);
  List.iteri
    (fun i (e : Journal.event) -> checki "seq numbers are monotone" (i + 2) e.Journal.seq)
    es

let test_journal_merges_writers_by_time () =
  let j = Journal.create ~writers:3 ~capacity:8 in
  Journal.record j ~writer:0 (Journal.Stage { name = "build"; mark = `Begin });
  Journal.record j ~writer:1 (Journal.Publish { queries = 10 });
  Journal.record j ~writer:2 (Journal.Window_cut
    { index = 0; queries = 10; qps = 1.0; p50_ns = 1.0; p99_ns = 2.0;
      hotspot_ratio = 0.5; alert = false });
  Journal.record j ~writer:0 (Journal.Stage { name = "build"; mark = `End });
  let es = Journal.events j in
  checki "all writers merged" 4 (List.length es);
  let ts = List.map (fun (e : Journal.event) -> e.Journal.t_ns) es in
  checkb "timestamp order" true (List.sort compare ts = ts);
  checkb "writer ids preserved" true
    (List.sort compare (List.map (fun (e : Journal.event) -> e.Journal.writer) es)
    = [ 0; 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Postmortem                                                           *)
(* ------------------------------------------------------------------ *)

let universe = 1 lsl 16

let serve_with_recorder ~structure ~alert_factor ~seed =
  let rng = Rng.create seed in
  let keys = Keyset.random rng ~universe ~n:128 in
  let inst = Select.structure rng ~universe ~keys structure in
  let qd = Select.workload rng ~universe ~keys "pos" in
  let domains = 2 in
  let journal = Journal.create ~writers:(domains + 2) ~capacity:512 in
  let captured = ref None in
  let mon_ref = ref None in
  let on_alert e =
    match !mon_ref with
    | None -> ()
    | Some mon ->
      captured :=
        Some
          (Postmortem.capture ~fingerprint:fp ~structure ~workload:"pos" ~domains ~trigger:e
             mon)
  in
  let mon = Engine.Monitor.create ~alert_factor ~journal ~on_alert ~domains inst in
  mon_ref := Some mon;
  let w =
    Engine.run
      (Engine.Config.make ~monitor:mon ~domains ~seed ())
      (Engine.Static { inst; qdist = qd; queries_per_domain = 500 })
  in
  (w, !captured)

let test_postmortem_dump_on_hot_structure () =
  (* Unreplicated FKS funnels every query through its parameter cell;
     at a low factor the alert must fire and the hook must capture. *)
  let w, captured = serve_with_recorder ~structure:"fks-norepl" ~alert_factor:2.0 ~seed:9 in
  checkb "alert fired" true (w.Engine.alert_windows > 0);
  match captured with
  | None -> Alcotest.fail "on_alert hook never captured a postmortem"
  | Some pm ->
    checkb "trigger ratio above factor" true (pm.Postmortem.trigger.Postmortem.ratio > 2.0);
    checkb "windows captured" true (pm.Postmortem.windows <> []);
    checkb "journal events captured" true (pm.Postmortem.events <> []);
    checkb "alert state captured" true pm.Postmortem.alert.Postmortem.active;
    (* Round-trip: the dump re-reads into the same value. *)
    (match Postmortem.of_string (Postmortem.to_string pm) with
    | Error e -> Alcotest.failf "postmortem round-trip failed: %s" e
    | Ok pm' -> checkb "round-trip preserves the dump exactly" true (pm = pm'));
    (* The analyzer reconstructs the story from the document alone. *)
    let report = Postmortem.analyze pm in
    checkb "analyzer names the structure" true (contains "fks-norepl" report);
    checkb "analyzer shows the raise" true (contains "ALERT RAISED" report);
    checkb "analyzer shows the serve stage" true (contains "stage serve" report);
    checkb "analyzer shows worker publications" true (contains "worker published" report)

let test_postmortem_quiet_on_low_contention () =
  let w, captured = serve_with_recorder ~structure:"lc" ~alert_factor:8.0 ~seed:9 in
  checki "no alert windows on the low-contention dictionary" 0 w.Engine.alert_windows;
  checkb "no dump captured" true (captured = None)

let test_postmortem_validation () =
  (match Postmortem.of_string {|{"schema":"lowcon-bench","version":1}|} with
  | Ok _ -> Alcotest.fail "bench schema accepted as postmortem"
  | Error _ -> ());
  match Postmortem.of_string {|{"schema":"lowcon-postmortem","version":7}|} with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error e -> checkb "version error mentions the number" true (contains "7" e)

(* ------------------------------------------------------------------ *)
(* GC fields on bench entries                                           *)
(* ------------------------------------------------------------------ *)

let test_artifact_gc_fields_roundtrip () =
  (* An entry carrying the scaling-observatory GC fields round-trips
     exactly — including the hot path's expected 0.0 words/query — and
     one without them reads back as [None]. *)
  let with_gc =
    entry ~minor_words_per_query:0.0 ~major_collections:3
      ~ns:(ci 100.0 98.0 102.0 [ 100.0; 102.0; 98.0 ])
      ~probes:(ci 15.0 15.0 15.0 [ 15.0; 15.0; 15.0 ])
      ()
  in
  let base = small_artifact () in
  let art = { base with Artifact.entries = base.Artifact.entries @ [ with_gc ] } in
  (match Artifact.of_string (Artifact.to_string art) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok art' ->
    checkb "round-trip preserves GC fields" true (art = art');
    let last = List.nth art'.Artifact.entries 2 in
    checkb "Some 0.0 survives (not collapsed to None)" true
      (last.Artifact.minor_words_per_query = Some 0.0
      && last.Artifact.major_collections = Some 3);
    let first = List.hd art'.Artifact.entries in
    checkb "entries without GC fields read back as None" true
      (first.Artifact.minor_words_per_query = None
      && first.Artifact.major_collections = None));
  (* Back-compat: the committed pre-observatory fixture has no GC
     members and must decode with both fields [None]. *)
  let old = load_fixture "bench_a.json" in
  List.iter
    (fun (e : Artifact.entry) ->
      checkb "pre-observatory entry decodes to None" true
        (e.Artifact.minor_words_per_query = None && e.Artifact.major_collections = None))
    old.Artifact.entries

(* ------------------------------------------------------------------ *)
(* Scaling artifact                                                     *)
(* ------------------------------------------------------------------ *)

(* One real sweep, shared by the scaling tests (the run itself asserts
   phase/counter reconciliation internally, so merely completing is
   already a check). *)
let scaling_fixture =
  lazy
    (Scaling.run ~seed:11
       {
         Scaling.structure = "lc";
         workload = "pos";
         domain_counts = [ 1; 2; 3 ];
         queries_per_domain = 300;
         trials = 2;
         n = 128;
       })

let test_scaling_run_reconciles () =
  let t = Lazy.force scaling_fixture in
  checki "one point per domain count" 3 (List.length t.Scaling.points);
  List.iteri
    (fun i (p : Scaling.point) ->
      checki
        (Printf.sprintf "points[%d] domains" i)
        (i + 1) p.Scaling.p_domains;
      checki
        (Printf.sprintf "points[%d] queries" i)
        ((i + 1) * 300 * 2)
        p.Scaling.p_queries;
      let ns = Engine.phase_ns p.Scaling.p_phases in
      checki
        (Printf.sprintf "points[%d] phases sum to wall" i)
        (ns Engine.Wall)
        (ns Engine.Probe + ns Engine.Tally + ns Engine.Publish + ns Engine.Pin + ns Engine.Other);
      checkb (Printf.sprintf "points[%d] throughput positive" i) true
        (p.Scaling.throughput.Artifact.mean > 0.0);
      checkb (Printf.sprintf "points[%d] alloc gauge sane" i) true
        (Float.is_finite p.Scaling.p_gc.Scaling.minor_words_per_query
        && p.Scaling.p_gc.Scaling.minor_words_per_query >= 0.0))
    t.Scaling.points;
  checki "summary point count" 3 t.Scaling.summary.Scaling.s_points;
  checkb "exactly one of fit / fit_error" true
    (match (t.Scaling.fit, t.Scaling.fit_error) with
    | Some _, None | None, Some _ -> true
    | _ -> false);
  (* The render never raises and carries the per-point table. *)
  checkb "render mentions every domain count" true
    (let s = Scaling.render t in
     contains "1" s && contains "2" s && contains "3" s)

let test_scaling_roundtrip () =
  let t = Lazy.force scaling_fixture in
  match Scaling.of_string (Scaling.to_string t) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok t' -> checkb "round-trip preserves the artifact exactly" true (t = t')

let test_scaling_rejects_tampered_summary () =
  let t = Lazy.force scaling_fixture in
  let doctored =
    {
      t with
      Scaling.summary =
        {
          t.Scaling.summary with
          Scaling.s_peak_qps = (2.0 *. t.Scaling.summary.Scaling.s_peak_qps) +. 1.0;
        };
    }
  in
  match Scaling.of_string (Scaling.to_string doctored) with
  | Ok _ -> Alcotest.fail "tampered summary was accepted"
  | Error e -> checkb "error names the tampering" true (contains "summary" e)

let test_scaling_fit_exclusivity () =
  let t = Lazy.force scaling_fixture in
  let dummy = { Usl.lambda = 1.0; sigma = 0.1; kappa = 0.01; r2 = 0.99 } in
  (match
     Scaling.of_string
       (Scaling.to_string { t with Scaling.fit = Some dummy; fit_error = Some "x" })
   with
  | Ok _ -> Alcotest.fail "fit and fit_error together were accepted"
  | Error e -> checkb "both rejected" true (contains "both" e));
  match
    Scaling.of_string (Scaling.to_string { t with Scaling.fit = None; fit_error = None })
  with
  | Ok _ -> Alcotest.fail "absent fit and fit_error were accepted"
  | Error e -> checkb "neither rejected" true (contains "neither" e)

let test_scaling_rejects_malformed () =
  (match Scaling.of_string {|{"schema":"lowcon-bench","version":1}|} with
  | Ok _ -> Alcotest.fail "bench schema accepted as scaling artifact"
  | Error _ -> ());
  let t = Lazy.force scaling_fixture in
  (* Out-of-order points. *)
  (match
     Scaling.of_string (Scaling.to_string { t with Scaling.points = List.rev t.Scaling.points })
   with
  | Ok _ -> Alcotest.fail "descending domain counts accepted"
  | Error e -> checkb "ordering error" true (contains "ascending" e));
  (* A point whose phase attribution does not reconcile: the first
     point's probe_ns, one more in the written document. *)
  let module Json = Lc_obs.Json in
  let rec bump path (j : Json.t) =
    match (path, j) with
    | [], Json.Int v -> Json.Int (v + 1)
    | k :: rest, Json.Obj kvs ->
      Json.Obj (List.map (fun (k', v) -> (k', if k' = k then bump rest v else v)) kvs)
    | "0" :: rest, Json.List (x :: xs) -> Json.List (bump rest x :: xs)
    | _ -> Alcotest.fail "no such member to perturb"
  in
  let broken =
    match Json.parse (Scaling.to_string t) with
    | Ok j -> Json.to_string (bump [ "points"; "0"; "phases"; "probe_ns" ] j)
    | Error e -> Alcotest.failf "written artifact does not parse: %s" e
  in
  match Scaling.of_string broken with
  | Ok _ -> Alcotest.fail "non-reconciling phases accepted"
  | Error e -> checkb "reconciliation error" true (contains "reconcile" e)

let () =
  Alcotest.run "lc_perf"
    [
      ( "artifact",
        [
          Alcotest.test_case "strict round-trip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "schema validation" `Quick test_artifact_validation;
          Alcotest.test_case "rejects non-finite floats" `Quick
            test_artifact_strict_rejects_nonfinite;
          Alcotest.test_case "BENCH_<n> numbering" `Quick test_artifact_next_path;
          Alcotest.test_case "load of a directory is an error" `Quick
            test_artifact_load_directory;
        ] );
      ( "suite",
        [
          Alcotest.test_case "reconciles with engine totals" `Quick test_suite_reconciles;
          Alcotest.test_case "mixed axis" `Quick test_suite_mixed_axis;
          Alcotest.test_case "probes deterministic in seed" `Quick
            test_suite_probes_deterministic_in_seed;
        ] );
      ( "diff",
        [
          Alcotest.test_case "flags planted 2x regression" `Quick
            test_diff_flags_planted_regression;
          Alcotest.test_case "self-diff is silent" `Quick test_diff_self_is_silent;
          Alcotest.test_case "unmatched keys and renderings" `Quick
            test_diff_unmatched_and_render;
          Alcotest.test_case "document round-trip" `Quick test_diff_document_roundtrip;
        ] );
      ( "journal",
        [
          Alcotest.test_case "ring overwrite" `Quick test_journal_ring_overwrite;
          Alcotest.test_case "merges writers by time" `Quick
            test_journal_merges_writers_by_time;
        ] );
      ( "postmortem",
        [
          Alcotest.test_case "dump on hot structure" `Quick test_postmortem_dump_on_hot_structure;
          Alcotest.test_case "quiet on low contention" `Quick
            test_postmortem_quiet_on_low_contention;
          Alcotest.test_case "schema validation" `Quick test_postmortem_validation;
        ] );
      ( "gc-fields",
        [
          Alcotest.test_case "round-trip and back-compat" `Quick
            test_artifact_gc_fields_roundtrip;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "sweep reconciles" `Quick test_scaling_run_reconciles;
          Alcotest.test_case "strict round-trip" `Quick test_scaling_roundtrip;
          Alcotest.test_case "rejects tampered summary" `Quick
            test_scaling_rejects_tampered_summary;
          Alcotest.test_case "fit exclusivity" `Quick test_scaling_fit_exclusivity;
          Alcotest.test_case "rejects malformed documents" `Quick
            test_scaling_rejects_malformed;
        ] );
    ]
