(* Tier-1 tests for the observability layer: the JSON codec, the sharded
   metrics registry (log-bucket boundaries, multi-shard merge, growth on
   late registration), span balance and Chrome-trace export, and the
   acceptance criteria for the instrumented engine — telemetry off means
   a byte-identical result, telemetry on reconciles exactly with the
   engine's own probe accounting. *)

module Rng = Lc_prim.Rng
module Qdist = Lc_cellprobe.Qdist
module Keyset = Lc_workload.Keyset
module Engine = Lc_parallel.Engine
module Json = Lc_obs.Json
module Metrics = Lc_obs.Metrics
module Span = Lc_obs.Span
module Export = Lc_obs.Export
module Obs = Lc_obs.Obs
module Heavy = Lc_obs.Heavy
module Window = Lc_obs.Window
module Http = Lc_obs.Http

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Static serving through the unified entry point. *)
let run_serve ?cost ?obs ~domains ~queries_per_domain ~seed inst qdist =
  (Engine.run
     (Engine.Config.make ?cost ?obs ~domains ~seed ())
     (Engine.Static { inst; qdist; queries_per_domain }))
    .Engine.result

let run_monitored ~monitor ~domains ~queries_per_domain ~seed inst qdist =
  Engine.run
    (Engine.Config.make ~monitor ~domains ~seed ())
    (Engine.Static { inst; qdist; queries_per_domain })

let universe = 1 lsl 18
let n = 256

let lc_fixture seed =
  let rng = Rng.create seed in
  let keys = Keyset.random rng ~universe ~n in
  let dict = Lc_core.Dictionary.build rng ~universe ~keys in
  (keys, Lc_core.Dictionary.instance dict)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.List [ Json.Null; Json.Bool true; Json.Float 1.5 ]);
        ("nested", Json.Obj [ ("s", Json.String "quote \" backslash \\ newline \n tab \t") ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("neg", Json.Int (-7));
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok doc' -> checkb "round-trip preserves the document" true (doc = doc')

let test_json_numbers () =
  (match Json.parse "[0, -12, 3.25, 1e3, 2E-2]" with
  | Ok (Json.List [ Json.Int 0; Json.Int (-12); Json.Float f1; Json.Float f2; Json.Float f3 ])
    ->
    checkb "3.25 exact" true (f1 = 3.25);
    checkb "1e3 exact" true (f2 = 1000.0);
    checkb "2E-2 exact" true (f3 = 0.02)
  | Ok _ -> Alcotest.fail "wrong shape for number list"
  | Error e -> Alcotest.fail e);
  checkb "int stays Int through print" true (Json.to_string (Json.Int 123) = "123")

let test_json_rejects () =
  let bad s = checkb (Printf.sprintf "rejects %S" s) true (Result.is_error (Json.parse s)) in
  bad "";
  bad "{";
  bad "[1,]";
  bad "\"unterminated";
  bad "truu";
  bad "{\"a\":1} trailing";
  bad "{'single':1}";
  bad "[1 2]"

let test_json_escapes () =
  match Json.parse {|"aA\n\"b\\"|} with
  | Ok (Json.String s) -> checks "escape decoding" "aA\n\"b\\" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e

let test_json_strict_rejects_nonfinite () =
  (match Json.to_string_strict (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float Float.nan ]) ]) with
  | Error { Json.path; value } ->
    checks "path pinpoints the NaN" "$.a[1]" path;
    checkb "offending value reported" true (Float.is_nan value)
  | Ok _ -> Alcotest.fail "NaN was encoded");
  (match Json.to_string_strict (Json.Float Float.infinity) with
  | Error { Json.path; _ } -> checks "root-level path" "$" path
  | Ok _ -> Alcotest.fail "infinity was encoded");
  let doc = Json.Obj [ ("x", Json.Float 1.5); ("y", Json.List [ Json.Float (-0.0) ]) ] in
  match Json.to_string_strict doc with
  | Ok s -> checks "clean documents match the lenient writer" (Json.to_string doc) s
  | Error _ -> Alcotest.fail "finite document rejected"

let test_json_float_spellings () =
  let roundtrips f =
    match Json.parse (Json.to_string (Json.Float f)) with
    | Ok (Json.Float g) -> g = f
    | Ok (Json.Int i) -> float_of_int i = f
    | _ -> false
  in
  List.iter
    (fun f -> checkb (Printf.sprintf "%h round-trips" f) true (roundtrips f))
    [ 1e308; 5e-324; 1.0e-7; 3.141592653589793; 1e22; -1e22; 0.1; 1234567890.123 ];
  checks "negative zero spelling" "-0.0" (Json.to_string (Json.Float (-0.0)));
  match Json.parse "-0.0" with
  | Ok (Json.Float g) -> checkb "negative zero keeps its sign" true (1.0 /. g < 0.0)
  | _ -> Alcotest.fail "-0.0 did not parse as a float"

let prop_float_roundtrip =
  QCheck.Test.make ~name:"finite floats round-trip exactly through JSON" ~count:1000
    QCheck.float (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> g = f
      | Ok (Json.Int i) -> float_of_int i = f
      | _ -> false)

let prop_float_exponent_forms =
  (* QCheck.float rarely strays far from magnitude 1; build m * 10^e
     directly so both the %.12g fast path and the %.17g fallback see
     subnormals, huge magnitudes and awkward mantissas. *)
  QCheck.Test.make ~name:"m * 10^e round-trips across the exponent range" ~count:500
    QCheck.(pair (int_range (-1_000_000) 1_000_000) (int_range (-320) 300))
    (fun (m, e) ->
      let f = float_of_int m *. (10.0 ** float_of_int e) in
      QCheck.assume (Float.is_finite f);
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> g = f
      | Ok (Json.Int i) -> float_of_int i = f
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_bucket_boundaries () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  let sh = Metrics.shard m ~domain:0 in
  List.iter (fun v -> Metrics.observe sh h v) [ 0; 1; 2; 3; 4; 7; 8 ];
  let snap = Metrics.snapshot m in
  match Metrics.Snapshot.find_hist snap "h" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hist ->
    (* 0 -> bucket upper 0; 1 -> 1; 2,3 -> 3; 4,7 -> 7; 8 -> 15. *)
    Alcotest.(check (array (pair int int)))
      "log-bucket boundaries at powers of two"
      [| (0, 1); (1, 1); (3, 2); (7, 2); (15, 1) |]
      hist.buckets;
    checki "count" 7 hist.count;
    checki "sum" 25 hist.sum;
    checki "max" 8 hist.max_value

let test_metrics_multi_shard_merge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  let g = Metrics.gauge m "g" in
  let h = Metrics.histogram m "h" in
  let sh0 = Metrics.shard m ~domain:0 in
  let sh1 = Metrics.shard m ~domain:1 in
  Metrics.incr sh0 c 3;
  Metrics.incr sh1 c 4;
  Metrics.set_gauge sh0 g 1.5;
  Metrics.set_gauge sh1 g 2.5;
  Metrics.observe sh0 h 5;
  Metrics.observe sh1 h 5;
  Metrics.observe sh1 h 100;
  let snap = Metrics.snapshot m in
  checki "counters sum across shards" 7
    (Option.get (Metrics.Snapshot.counter_value snap "c"));
  checkb "gauges sum across shards" true
    (Option.get (Metrics.Snapshot.gauge_value snap "g") = 4.0);
  let hist = Option.get (Metrics.Snapshot.find_hist snap "h") in
  checki "histogram count merges" 3 hist.count;
  checki "histogram sum merges" 110 hist.sum;
  checki "same-bucket observations merge" 2
    (snd (Array.get hist.buckets 0))

let test_metrics_register_after_shard () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m "first" in
  let sh = Metrics.shard m ~domain:0 in
  Metrics.incr sh c1 1;
  (* Registering after the shard exists must grow its storage. *)
  let c2 = Metrics.counter m "second" in
  let h = Metrics.histogram m "late_hist" in
  Metrics.incr sh c2 9;
  Metrics.observe sh h 2;
  let snap = Metrics.snapshot m in
  checki "pre-existing counter intact" 1
    (Option.get (Metrics.Snapshot.counter_value snap "first"));
  checki "late counter recorded" 9
    (Option.get (Metrics.Snapshot.counter_value snap "second"));
  checki "late histogram recorded" 1
    (Option.get (Metrics.Snapshot.find_hist snap "late_hist")).count;
  checkb "same name returns same metric" true (Metrics.counter m "first" = c1);
  checkb "kind clash rejected" true
    (try
       ignore (Metrics.gauge m "first" : Metrics.gauge);
       false
     with Invalid_argument _ -> true)

let test_metrics_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  let sh = Metrics.shard m ~domain:0 in
  for _ = 1 to 1000 do
    Metrics.observe sh h 100
  done;
  let hist = Option.get (Metrics.Snapshot.find_hist (Metrics.snapshot m) "h") in
  let p50 = Metrics.Snapshot.quantile hist 0.5 in
  (* All mass in bucket [64, 127], clamped at the exact max. *)
  checkb "p50 inside the mass bucket" true (p50 >= 64.0 && p50 <= 100.0);
  checkb "p100 clamps to exact max" true (Metrics.Snapshot.quantile hist 1.0 = 100.0);
  checkb "mean exact" true (Metrics.Snapshot.mean hist = 100.0);
  let empty = Metrics.histogram m "empty" in
  ignore (Metrics.shard m ~domain:0);
  ignore empty;
  let e = Option.get (Metrics.Snapshot.find_hist (Metrics.snapshot m) "empty") in
  checkb "empty quantile is 0" true (Metrics.Snapshot.quantile e 0.5 = 0.0)

(* ------------------------------------------------------------------ *)
(* Span                                                                 *)
(* ------------------------------------------------------------------ *)

let test_span_balance () =
  let s = Span.create () in
  let tl = Span.timeline s ~tid:0 in
  Span.with_span tl "outer" (fun () ->
      Span.with_span tl "inner" (fun () -> Span.instant tl "mark"));
  checkb "balanced after with_span nesting" true (Span.check_balanced s = Ok ());
  Span.begin_span tl "dangling";
  checkb "open span detected" true (Result.is_error (Span.check_balanced s));
  Span.end_span tl;
  checkb "balanced again" true (Span.check_balanced s = Ok ());
  checkb "end without begin raises" true
    (try
       Span.end_span tl;
       false
     with Invalid_argument _ -> true)

let test_span_chrome_json () =
  let s = Span.create () in
  let tl0 = Span.timeline s ~tid:0 in
  let tl1 = Span.timeline s ~tid:1 in
  Span.with_span tl0 "alpha" (fun () -> Span.with_span tl0 "beta" (fun () -> ()));
  Span.with_span tl1 "gamma" (fun () -> Span.instant tl1 "tick");
  match Json.parse (Span.to_chrome_json s) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok doc ->
    let events = Json.to_list (Option.get (Json.member "traceEvents" doc)) in
    checki "3 spans x 2 events + 1 instant" 7 (List.length events);
    List.iter
      (fun e ->
        checkb "every event has a name" true (Json.member "name" e <> None);
        checkb "every event has a ts" true (Json.member "ts" e <> None);
        checkb "ph is B/E/i" true
          (match Option.bind (Json.member "ph" e) Json.string_value with
          | Some ("B" | "E" | "i") -> true
          | _ -> false))
      events

let test_span_summary () =
  let s = Span.create () in
  let tl = Span.timeline s ~tid:3 in
  Span.with_span tl "work" (fun () ->
      Span.with_span tl "sub" (fun () -> ());
      Span.with_span tl "sub" (fun () -> ()));
  let text = Span.summary s in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  checkb "summary names the timeline" true (contains "tid 3");
  checkb "summary lists the parent" true (contains "work");
  checkb "summary aggregates repeated children" true (contains "2 calls")

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)
(* ------------------------------------------------------------------ *)

let test_export_prometheus_and_json () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"a counter" "dotted.name_total" in
  let h = Metrics.histogram m "lat" in
  let sh = Metrics.shard m ~domain:0 in
  Metrics.incr sh c 5;
  Metrics.observe sh h 3;
  Metrics.observe sh h 200;
  let snap = Metrics.snapshot m in
  let prom = Export.prometheus snap in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length prom
      && (String.sub prom i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  checkb "counter exposed with sanitized name" true (has "dotted_name_total 5");
  checkb "TYPE line present" true (has "# TYPE dotted_name_total counter");
  checkb "histogram cumulative +Inf bucket" true (has "lat_bucket{le=\"+Inf\"} 2");
  checkb "histogram sum" true (has "lat_sum 203");
  match Json.parse (Export.json_snapshot snap) with
  | Error e -> Alcotest.failf "json snapshot does not parse: %s" e
  | Ok doc ->
    let counters = Option.get (Json.member "counters" doc) in
    checkb "counter value in json" true
      (Option.bind (Json.member "dotted.name_total" counters) Json.int_value = Some 5)

let test_export_help_escaping () =
  checks "escape_help maps backslash and newline"
    "line one\\nline \\\\two" (Export.escape_help "line one\nline \\two");
  let m = Metrics.create () in
  let help = "first line\nsecond \\ line" in
  ignore (Metrics.counter m ~help "multi_line_total" : Metrics.counter);
  ignore (Metrics.shard m ~domain:0 : Metrics.shard);
  let prom = Export.prometheus (Metrics.snapshot m) in
  let lines = String.split_on_char '\n' prom in
  let help_lines =
    List.filter
      (fun l -> String.length l >= 6 && String.sub l 0 6 = "# HELP")
      lines
  in
  checki "one HELP line despite the embedded newline" 1 (List.length help_lines);
  let line = List.hd help_lines in
  checks "HELP line carries the escaped text"
    "# HELP multi_line_total first line\\nsecond \\\\ line" line;
  (* Round-trip: un-escaping the exposed help recovers the original. *)
  let unescape s =
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    while !i < String.length s do
      if s.[!i] = '\\' && !i + 1 < String.length s then begin
        (match s.[!i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | c -> Buffer.add_char buf c);
        i := !i + 2
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  let prefix = "# HELP multi_line_total " in
  let exposed = String.sub line (String.length prefix) (String.length line - String.length prefix) in
  checks "unescape round-trips" help (unescape exposed)

let test_export_write_file_atomic () =
  let dir = Filename.temp_file "lc_obs_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "doc.prom" in
  let read p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Export.write_file ~path "first version\n";
  checks "initial write lands" "first version\n" (read path);
  Export.write_file ~path "second version\n";
  checks "rewrite replaces the document" "second version\n" (read path);
  let leftovers =
    Array.to_list (Sys.readdir dir) |> List.filter (fun f -> f <> "doc.prom")
  in
  checkb "no temp files left behind" true (leftovers = []);
  Sys.remove path;
  Unix.rmdir dir

(* metrics.mli promises bucket b covers [2^(b-1), 2^b - 1]: both ends of
   every range must land in the same bucket, whose upper edge is
   2^b - 1. *)
let prop_bucket_boundaries =
  QCheck.Test.make ~name:"observe places 2^(b-1) and 2^b - 1 in bucket b" ~count:100
    QCheck.(int_range 1 30)
    (fun b ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "h" in
      let sh = Metrics.shard m ~domain:0 in
      Metrics.observe sh h (1 lsl (b - 1));
      Metrics.observe sh h ((1 lsl b) - 1);
      let hist = Option.get (Metrics.Snapshot.find_hist (Metrics.snapshot m) "h") in
      hist.buckets = [| ((1 lsl b) - 1, 2) |])

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q and bounded by max_value" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 50) (int_range 0 1_000_000_000))
        (pair (int_range 0 1000) (int_range 0 1000)))
    (fun (values, (a, b)) ->
      let q1 = float_of_int (min a b) /. 1000.0 in
      let q2 = float_of_int (max a b) /. 1000.0 in
      let m = Metrics.create () in
      let h = Metrics.histogram m "h" in
      let sh = Metrics.shard m ~domain:0 in
      List.iter (fun v -> Metrics.observe sh h v) values;
      let hist = Option.get (Metrics.Snapshot.find_hist (Metrics.snapshot m) "h") in
      let v1 = Metrics.Snapshot.quantile hist q1 in
      let v2 = Metrics.Snapshot.quantile hist q2 in
      v1 <= v2 && v2 <= float_of_int hist.max_value)

(* ------------------------------------------------------------------ *)
(* Heavy (Space-Saving sketch)                                          *)
(* ------------------------------------------------------------------ *)

let test_heavy_exact_below_capacity () =
  let s = Heavy.create ~k:8 in
  List.iter (fun x -> Heavy.observe s x) [ 1; 2; 1; 3; 1; 2 ];
  checki "total counts observations" 6 (Heavy.total s);
  checki "below capacity the floor is 0" 0 (Heavy.min_count s);
  match Heavy.entries s with
  | { Heavy.item = 1; count = 3; err = 0 } :: rest ->
    checkb "remaining entries exact" true
      (List.for_all (fun (e : Heavy.entry) -> e.err = 0) rest)
  | _ -> Alcotest.fail "dominant item not first or not exact"

let test_heavy_tracks_heavy_hitter () =
  let s = Heavy.create ~k:4 in
  let rng = Rng.create 99 in
  (* One item at 40%, noise spread over 1000 others: far above total/k. *)
  for _ = 1 to 5_000 do
    if Rng.int rng 10 < 4 then Heavy.observe s 7777
    else Heavy.observe s (Rng.int rng 1000)
  done;
  let m = Heavy.merge [ s ] ~k:4 in
  (match List.find_opt (fun (e : Heavy.entry) -> e.item = 7777) m.Heavy.top with
  | None -> Alcotest.fail "heavy hitter not tracked"
  | Some e ->
    checkb "estimate brackets truth from above" true (e.count >= 2000 - 300);
    checkb "err below the merge bound" true (e.err <= m.Heavy.error_bound));
  checkb "error bound within total/k" true
    (m.Heavy.error_bound <= m.Heavy.total_observed / 4);
  let g = Option.get (Heavy.max_guaranteed m) in
  checkb "guaranteed max is the heavy hitter" true (g.item = 7777)

let test_heavy_merge_disjoint () =
  let mk xs =
    let s = Heavy.create ~k:4 in
    List.iter (fun x -> Heavy.observe s x) xs;
    s
  in
  (* Two under-capacity sketches: the merge must be exact. *)
  let a = mk [ 1; 1; 2 ] in
  let b = mk [ 1; 3; 3; 3 ] in
  let m = Heavy.merge [ a; b ] ~k:4 in
  checki "totals add" 7 m.Heavy.total_observed;
  checki "exact merge has no error" 0 m.Heavy.error_bound;
  let find i = List.find (fun (e : Heavy.entry) -> e.item = i) m.Heavy.top in
  checki "cross-sketch counts sum" 3 (find 1).count;
  checki "single-sketch counts survive" 3 (find 3).count;
  checki "max_estimate is the top count" 3 (Heavy.max_estimate m)

let test_heavy_copy_into () =
  let s = Heavy.create ~k:3 in
  List.iter (fun x -> Heavy.observe s x) [ 5; 5; 6; 7; 8 ];
  let d = Heavy.create ~k:3 in
  Heavy.copy_into s d;
  checkb "copy reproduces entries" true (Heavy.entries s = Heavy.entries d);
  checki "copy reproduces total" (Heavy.total s) (Heavy.total d);
  Heavy.observe s 5;
  checkb "copy is independent of the source" true (Heavy.total d = 5);
  checkb "k mismatch rejected" true
    (try
       Heavy.copy_into s (Heavy.create ~k:4);
       false
     with Invalid_argument _ -> true)

let test_heavy_merge_edge_cases () =
  (* Merging nothing is a well-defined empty sketch. *)
  let z = Heavy.merge [] ~k:4 in
  checki "empty merge total" 0 z.Heavy.total_observed;
  checkb "empty merge has no entries" true (z.Heavy.top = []);
  checki "empty merge error bound" 0 z.Heavy.error_bound;
  checkb "no guaranteed max without entries" true (Heavy.max_guaranteed z = None);
  (* A sketch that observed nothing merges as a no-op. *)
  let m0 = Heavy.merge [ Heavy.create ~k:4 ] ~k:4 in
  checkb "empty sketch contributes nothing" true (m0.Heavy.top = []);
  checkb "still no guaranteed max" true (Heavy.max_guaranteed m0 = None);
  (* A single entry stays exact through the merge. *)
  let s = Heavy.create ~k:4 in
  for _ = 1 to 3 do
    Heavy.observe s 42
  done;
  let m1 = Heavy.merge [ s ] ~k:4 in
  (match m1.Heavy.top with
  | [ { Heavy.item = 42; count = 3; err = 0 } ] -> ()
  | _ -> Alcotest.fail "single entry not exact after merge");
  (* Merging a sketch with itself counts its stream twice — the
     postmortem capture path must not deduplicate by identity. *)
  let m2 = Heavy.merge [ s; s ] ~k:4 in
  checki "self-merge doubles the total" 6 m2.Heavy.total_observed;
  match m2.Heavy.top with
  | [ { Heavy.item = 42; count = 6; err = 0 } ] -> ()
  | _ -> Alcotest.fail "self-merge did not double the count"

(* ------------------------------------------------------------------ *)
(* Window                                                               *)
(* ------------------------------------------------------------------ *)

let window_fixture ?(ring = 4) () =
  let m = Metrics.create () in
  let q = Metrics.counter m "q_total" in
  let p = Metrics.counter m "p_total" in
  let h = Metrics.histogram m "lat_ns" in
  let sh = Metrics.shard m ~domain:0 in
  let w =
    Window.create m
      {
        Window.ring_capacity = ring;
        queries_counter = "q_total";
        probes_counter = "p_total";
        latency_histogram = "lat_ns";
        space = 100;
        max_probes = 4;
        top_k = 4;
        alert_factor = 8.0;
      }
      ~publishers:1
  in
  (m, q, p, h, sh, w)

let test_window_tick_deltas () =
  let _, q, p, h, sh, w = window_fixture () in
  let sketch = Heavy.create ~k:4 in
  let pub = Window.publisher w 0 in
  Metrics.incr sh q 10;
  Metrics.incr sh p 40;
  Metrics.observe sh h 100;
  Heavy.observe sketch 3;
  Window.publish pub sh sketch;
  let e1 = Window.tick w in
  checki "first window sees the whole stream" 10 e1.Window.queries;
  checki "probes delta" 40 e1.Window.probes;
  checki "cumulative totals" 10 e1.Window.cum_queries;
  checkb "p50 from the windowed histogram" true (e1.Window.p50_ns > 0.0);
  (* Nothing new published: the next window must be empty, while the
     cumulative side holds. *)
  let e2 = Window.tick w in
  checki "quiet window has zero queries" 0 e2.Window.queries;
  checkb "quiet window has zero quantiles" true (e2.Window.p50_ns = 0.0);
  checki "cumulative unchanged" 10 e2.Window.cum_queries;
  (* More work, published again: only the delta shows. *)
  Metrics.incr sh q 5;
  Metrics.incr sh p 20;
  Window.publish pub sh sketch;
  let e3 = Window.tick w in
  checki "delta only" 5 e3.Window.queries;
  checki "cumulative advances" 15 e3.Window.cum_queries;
  checki "windows numbered in order" 2 e3.Window.index;
  checki "ring holds all three" 3 (List.length (Window.entries w));
  checkb "live snapshot sees published counters" true
    (Metrics.Snapshot.counter_value (Window.live_snapshot w) "q_total" = Some 15)

let test_window_ring_eviction () =
  let _, q, _, _, sh, w = window_fixture ~ring:2 () in
  let sketch = Heavy.create ~k:4 in
  let pub = Window.publisher w 0 in
  for i = 1 to 5 do
    Metrics.incr sh q i;
    Window.publish pub sh sketch;
    ignore (Window.tick w : Window.entry)
  done;
  checki "total windows counts evictions" 5 (Window.total_windows w);
  match Window.entries w with
  | [ e3; e4 ] ->
    checki "oldest retained window" 3 e3.Window.index;
    checki "latest window" 4 e4.Window.index;
    checkb "last agrees" true (Window.last w = Some e4)
  | es -> Alcotest.failf "expected 2 retained windows, got %d" (List.length es)

let test_window_alert_and_gauges () =
  let _, q, p, _, sh, w = window_fixture () in
  let sketch = Heavy.create ~k:4 in
  let pub = Window.publisher w 0 in
  (* 100 queries, every probe on cell 0: flat = 100*4/100 = 4, guaranteed
     tally 400 -> ratio 100, far over the factor of 8. *)
  Metrics.incr sh q 100;
  Metrics.incr sh p 400;
  for _ = 1 to 400 do
    Heavy.observe sketch 0
  done;
  Window.publish pub sh sketch;
  let e = Window.tick w in
  checkb "ratio reflects the funnel cell" true (e.Window.hotspot_ratio >= 99.0);
  checkb "alert fires" true e.Window.alert;
  checkb "alert state visible" true (Window.alert_active w);
  checki "fired total" 1 (Window.alert_fired_total w);
  let g = Window.prometheus_gauges w in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length g
      && (String.sub g i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  checkb "hotspot gauge exposed" true (has "engine_hotspot_ratio 100");
  checkb "alert gauge exposed" true (has "engine_hotspot_alert 1");
  checkb "window qps gauge exposed" true (has "engine_window_qps ")

let test_window_alert_hysteresis () =
  let _, q, p, _, sh, w = window_fixture () in
  let sketch = Heavy.create ~k:4 in
  let pub = Window.publisher w 0 in
  (* Phase 1: funnel every probe through cell 0. Guaranteed tally 400
     against a flat bound of 100 * 4 / 100 = 4 -> ratio 100, far over
     the factor of 8: the alert must raise. *)
  Metrics.incr sh q 100;
  Metrics.incr sh p 400;
  for _ = 1 to 400 do
    Heavy.observe sketch 0
  done;
  Window.publish pub sh sketch;
  let e1 = Window.tick w in
  checkb "alert raised on the funnel" true e1.Window.alert;
  checkb "alert active" true (Window.alert_active w);
  checki "firing run starts" 1 (Window.alert_firing_run w);
  checki "one raise so far" 1 (Window.alert_fired_total w);
  (* Phase 2: drown the sketch in uniform churn. With k = 4 and 100
     rotating cells every Space-Saving entry decays to count - err = 1,
     while the cumulative flat bound grows to ~404 — the ratio collapses
     and the alert must clear, not latch. *)
  Metrics.incr sh q 10_000;
  Metrics.incr sh p 40_000;
  for i = 1 to 40_000 do
    Heavy.observe sketch (1 + (i mod 100))
  done;
  Window.publish pub sh sketch;
  let e2 = Window.tick w in
  checkb "ratio collapses under churn" true (e2.Window.hotspot_ratio <= 8.0);
  checkb "alert cleared" true (not e2.Window.alert);
  checkb "alert state cleared" true (not (Window.alert_active w));
  checki "firing run reset" 0 (Window.alert_firing_run w);
  checki "fired total remembers the raise edge" 1 (Window.alert_fired_total w)

(* The windowed GC view: a recorder created with a gc_config diffs the
   named allocation counters per window exactly like the query counters,
   derives alloc/query from the same tick, and reports [None] without a
   gc_config (the pre-observatory shape, pinned above by every other
   window test using the plain fixture). *)
let test_window_gc_view () =
  let m = Metrics.create () in
  let q = Metrics.counter m "q_total" in
  let p = Metrics.counter m "p_total" in
  let _h = Metrics.histogram m "lat_ns" in
  let gm = Metrics.counter m "gc_minor_w" in
  let gp = Metrics.counter m "gc_promoted_w" in
  let gmaj = Metrics.counter m "gc_major_w" in
  let sh = Metrics.shard m ~domain:0 in
  let w =
    Window.create m
      ~gc:
        {
          Window.minor_words_counter = "gc_minor_w";
          promoted_words_counter = "gc_promoted_w";
          major_words_counter = "gc_major_w";
        }
      {
        Window.ring_capacity = 4;
        queries_counter = "q_total";
        probes_counter = "p_total";
        latency_histogram = "lat_ns";
        space = 100;
        max_probes = 4;
        top_k = 4;
        alert_factor = 8.0;
      }
      ~publishers:1
  in
  let sketch = Heavy.create ~k:4 in
  let pub = Window.publisher w 0 in
  Metrics.incr sh q 10;
  Metrics.incr sh p 40;
  Metrics.incr sh gm 1_000;
  Metrics.incr sh gp 64;
  Metrics.incr sh gmaj 8;
  Window.publish pub sh sketch;
  let e1 = Window.tick w in
  (match e1.Window.gc with
  | None -> Alcotest.fail "gc_config present but window has no GC view"
  | Some g ->
    checki "minor words delta" 1_000 g.Window.g_minor_words;
    checki "promoted words delta" 64 g.Window.g_promoted_words;
    checki "major words delta" 8 g.Window.g_major_words;
    checkb "alloc per query = minor/queries" true
      (Float.abs (g.Window.alloc_per_query -. 100.0) < 1e-9);
    checki "cumulative minor words" 1_000 g.Window.cum_minor_words;
    checkb "collection counts are sane" true
      (g.Window.g_minor_collections >= 0 && g.Window.g_major_collections >= 0);
    checkb "heap gauge populated" true (g.Window.g_heap_words > 0));
  (* Second window: only the new allocation shows, cumulative holds;
     a window with zero queries reports alloc_per_query 0, not a NaN. *)
  Metrics.incr sh gm 500;
  Window.publish pub sh sketch;
  let e2 = Window.tick w in
  (match e2.Window.gc with
  | None -> Alcotest.fail "GC view must be present on every window"
  | Some g ->
    checki "second window delta only" 500 g.Window.g_minor_words;
    checki "cumulative advances" 1_500 g.Window.cum_minor_words;
    checkb "zero-query window divides safely" true (g.Window.alloc_per_query = 0.0));
  (* The plain fixture (no gc_config) keeps the pre-observatory shape. *)
  let _, q', _, _, sh', w' = window_fixture () in
  let pub' = Window.publisher w' 0 in
  Metrics.incr sh' q' 1;
  Window.publish pub' sh' (Heavy.create ~k:4);
  checkb "no gc_config, no GC view" true ((Window.tick w').Window.gc = None)

(* ------------------------------------------------------------------ *)
(* Http                                                                 *)
(* ------------------------------------------------------------------ *)

(* The test's sockets time out on receive, so a server that never
   answers fails a test instead of hanging it. *)
let http_connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.0;
     Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close sock;
     raise e);
  sock

(* A whole reply, read until the server closes: its status and body. *)
let http_reply sock =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    let k = Unix.read sock chunk 0 (Bytes.length chunk) in
    if k > 0 then begin
      Buffer.add_subbytes buf chunk 0 k;
      drain ()
    end
  in
  drain ();
  let raw = Buffer.contents buf in
  let status =
    match String.split_on_char ' ' raw with
    | _ :: code :: _ -> int_of_string code
    | _ -> -1
  in
  let body =
    let rec find i =
      if i + 3 >= String.length raw then String.length raw
      else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r' && raw.[i + 3] = '\n'
      then i + 4
      else find (i + 1)
    in
    let s = find 0 in
    String.sub raw s (String.length raw - s)
  in
  (status, body)

let http_close sock = try Unix.close sock with Unix.Unix_error (_, _, _) -> ()

let http_get port target =
  let sock = http_connect port in
  Fun.protect
    ~finally:(fun () -> http_close sock)
    (fun () ->
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" target in
      ignore (Unix.write_substring sock req 0 (String.length req) : int);
      http_reply sock)

let test_http_routes () =
  let hits = ref 0 in
  let server =
    Http.start ~port:0
      [
        ( "/metrics",
          fun () ->
            incr hits;
            Http.text "metric 1\n" );
        ("/boom", fun () -> failwith "handler exploded");
      ]
  in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let port = Http.port server in
      let status, body = http_get port "/metrics" in
      checki "200 on a routed path" 200 status;
      checks "body served" "metric 1\n" body;
      let status, _ = http_get port "/metrics?refresh=1" in
      checki "query string stripped before matching" 200 status;
      let status, _ = http_get port "/nope" in
      checki "404 on unknown path" 404 status;
      let status, _ = http_get port "/boom" in
      checki "500 on a raising handler" 500 status;
      checki "handler ran once per routed request" 2 !hits);
  (* Stop is idempotent and the port is released. *)
  Http.stop server;
  checkb "connection refused after stop" true
    (try
       ignore (http_get (Http.port server) "/metrics");
       false
     with Unix.Unix_error (_, _, _) -> true)

(* A client that sends half a request line and stalls holds the
   server for at most its request deadline (2 s): it is answered 408, a
   second scrape still gets its reply, and a stop interrupts a stalled
   read at once. *)
let test_http_stalled_client () =
  let deadline = 2.0 and margin = 3.0 in
  let server = Http.start ~port:0 [ ("/healthz", fun () -> Http.text "ok\n") ] in
  let stall () =
    let sock = http_connect (Http.port server) in
    ignore (Unix.write_substring sock "GET /hea" 0 8 : int);
    sock
  in
  let stalled = ref [] in
  let elapsed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter http_close !stalled;
      Http.stop server)
    (fun () ->
      let first = stall () in
      stalled := [ first ];
      let (status, body), dt = elapsed (fun () -> http_get (Http.port server) "/healthz") in
      checki "second scrape answered" 200 status;
      checks "second scrape body" "ok\n" body;
      checkb
        (Printf.sprintf "second scrape within %.0f s (took %.2f s)" (deadline +. margin) dt)
        true
        (dt < deadline +. margin);
      checki "stalled client answered 408" 408 (fst (http_reply first));
      stalled := stall () :: !stalled;
      Unix.sleepf 0.2;
      let (), dt = elapsed (fun () -> Http.stop server) in
      checkb
        (Printf.sprintf "stop interrupts a stalled read (took %.2f s)" dt)
        true
        (dt < deadline /. 2.0))

(* ------------------------------------------------------------------ *)
(* Engine acceptance                                                    *)
(* ------------------------------------------------------------------ *)

(* Wall-clock fields vary run to run; everything else must not. *)
let normalized (r : Engine.result) = { r with Engine.seconds = 0.0; throughput = 0.0 }

let marshal r = Marshal.to_string (normalized r) []

let test_engine_obs_off_is_byte_identical () =
  let keys, inst = lc_fixture 21 in
  let keys_dist = Qdist.uniform ~name:"pos" keys in
  let serve ?obs () =
    Engine.run
      (Engine.Config.make ?obs ~domains:2 ~seed:33 ())
      (Engine.Static { inst; qdist = keys_dist; queries_per_domain = 600 })
  in
  let w1 = serve () in
  let w2 = serve () in
  checks "two uninstrumented runs marshal identically" (marshal w1.Engine.result)
    (marshal w2.Engine.result);
  let w3 = serve ~obs:(Obs.create ()) () in
  checks "telemetry does not perturb the result record" (marshal w1.Engine.result)
    (marshal w3.Engine.result);
  (* Without a monitor no window machinery engages. *)
  checkb "no windows without a monitor" true
    (w1.Engine.windows = [] && w1.Engine.cells = None && w1.Engine.alert_windows = 0)

let test_engine_obs_reconciles () =
  let keys, inst = lc_fixture 22 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let obs = Obs.create () in
  let r = run_serve ~obs ~domains:3 ~queries_per_domain:700 ~seed:5 inst qd in
  let snap = Obs.snapshot obs in
  checki "engine_probes_total = result.total_probes" r.Engine.total_probes
    (Option.get (Metrics.Snapshot.counter_value snap "engine_probes_total"));
  checki "engine_queries_total = result.queries" r.Engine.queries
    (Option.get (Metrics.Snapshot.counter_value snap "engine_queries_total"));
  let lat = Option.get (Metrics.Snapshot.find_hist snap "engine_query_latency_ns") in
  checki "one latency observation per query" r.Engine.queries lat.count;
  checkb "domains gauge" true
    (Metrics.Snapshot.gauge_value snap "engine_domains" = Some 3.0)

let test_engine_obs_trace_balanced () =
  let keys, inst = lc_fixture 23 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let obs = Obs.create () in
  let r = run_serve ~obs ~domains:3 ~queries_per_domain:300 ~seed:6 inst qd in
  checki "sanity: all queries served" 900 r.Engine.queries;
  checkb "collector reports balance" true (Span.check_balanced obs.Obs.spans = Ok ());
  (* Independently re-check balance from the emitted JSON itself. *)
  match Json.parse (Span.to_chrome_json obs.Obs.spans) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok doc ->
    let events = Json.to_list (Option.get (Json.member "traceEvents" doc)) in
    checkb "trace has events" true (List.length events > 0);
    let depth : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
    let tids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let tid = Option.get (Option.bind (Json.member "tid" e) Json.int_value) in
        Hashtbl.replace tids tid ();
        let d =
          match Hashtbl.find_opt depth tid with
          | Some d -> d
          | None ->
            let d = ref 0 in
            Hashtbl.add depth tid d;
            d
        in
        match Option.bind (Json.member "ph" e) Json.string_value with
        | Some "B" -> incr d
        | Some "E" ->
          decr d;
          checkb "no E before B" true (!d >= 0)
        | _ -> ())
      events;
    Hashtbl.iter
      (fun tid d -> checki (Printf.sprintf "tid %d ends at depth 0" tid) 0 !d)
      depth;
    (* Orchestrator + one timeline per worker domain. *)
    checki "timelines = domains + 1" 4 (Hashtbl.length tids)

let test_engine_obs_spinlock_wait () =
  let keys, inst = lc_fixture 24 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let obs = Obs.create () in
  let r =
    run_serve ~cost:(Engine.Spinlock { hold = 2 }) ~obs ~domains:2 ~queries_per_domain:400
      ~seed:7 inst qd
  in
  let snap = Obs.snapshot obs in
  let wait = Option.get (Metrics.Snapshot.find_hist snap "engine_spinlock_wait_ns") in
  checki "one wait observation per probe" r.Engine.total_probes wait.count;
  let free = run_serve ~domains:2 ~queries_per_domain:400 ~seed:7 inst qd in
  checki "same tallies as the free uninstrumented run" free.Engine.total_probes
    r.Engine.total_probes

(* ------------------------------------------------------------------ *)
(* Monitored serving (serve_windowed + Monitor + live scrape)           *)
(* ------------------------------------------------------------------ *)

let fks_norepl_fixture seed =
  let rng = Rng.create seed in
  let keys = Keyset.random rng ~universe ~n in
  (keys, Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys))

(* Satellite acceptance: on a completed monitored run against the
   deliberately hot structure, the streaming view must agree with the
   exact counters — windowed queries reconcile, the true hottest cell is
   tracked with its tally bracketed, the windowed ratio is within the
   sketch error bound of the exact one, and the alert fires. *)
let test_windowed_sketch_agrees_with_exact () =
  let keys, inst = fks_norepl_fixture 41 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let mon = Engine.Monitor.create ~interval_s:0.02 ~publish_period:64 ~domains:2 inst in
  let w =
    run_monitored ~monitor:mon ~domains:2 ~queries_per_domain:20_000 ~seed:9 inst qd
  in
  let r = w.Engine.result in
  let sum_q =
    List.fold_left (fun a (e : Window.entry) -> a + e.Window.queries) 0 w.Engine.windows
  in
  checki "windowed queries sum to the engine total" r.Engine.queries sum_q;
  let cells = Option.get w.Engine.cells in
  (match
     List.find_opt (fun (e : Heavy.entry) -> e.item = r.Engine.hottest_cell) cells.Heavy.top
   with
  | None -> Alcotest.fail "true hottest cell not in the merged top-k"
  | Some e ->
    checkb "tally bracketed: count - err <= true <= count" true
      (e.count - e.err <= r.Engine.hottest_count && r.Engine.hottest_count <= e.count));
  let final = List.nth w.Engine.windows (List.length w.Engine.windows - 1) in
  let exact = Engine.hotspot_ratio r in
  let sketched = final.Window.hotspot_ratio in
  checkb "sketched ratio never exceeds the exact one" true (sketched <= exact +. 1e-9);
  checkb "sketched ratio within the error bound of the exact one" true
    (exact -. sketched <= (float_of_int cells.Heavy.error_bound /. r.Engine.flat_bound) +. 1e-9);
  checkb "hot structure fires the alert" true (w.Engine.alert_windows > 0);
  checkb "final window flags the alert" true final.Window.alert

let test_windowed_quiet_on_low_contention () =
  let keys, inst = lc_fixture 42 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let mon = Engine.Monitor.create ~interval_s:0.02 ~publish_period:64 ~domains:2 inst in
  let w =
    run_monitored ~monitor:mon ~domains:2 ~queries_per_domain:8_000 ~seed:10 inst qd
  in
  let r = w.Engine.result in
  checkb "sanity: the exact ratio is itself small" true (Engine.hotspot_ratio r < 16.0);
  checki "alert stays silent on the Theorem 3 dictionary" 0 w.Engine.alert_windows;
  let sum_q =
    List.fold_left (fun a (e : Window.entry) -> a + e.Window.queries) 0 w.Engine.windows
  in
  checki "reconciliation holds here too" r.Engine.queries sum_q

(* The live per-cell view sums the workers' private tallies: once a
   2-domain run has joined, /cells.json and /scaling.json must report
   exactly the result's counts. A merge that left a worker's tally in
   place, or counted it twice, breaks both totals. *)
let test_cells_json_matches_result_after_join () =
  let keys, inst = lc_fixture 43 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let mon = Engine.Monitor.create ~interval_s:0.02 ~domains:2 inst in
  let r =
    (run_monitored ~monitor:mon ~domains:2 ~queries_per_domain:2_000 ~seed:11 inst qd)
      .Engine.result
  in
  let scrape route =
    Result.get_ok (Json.parse (List.assoc route (Engine.Monitor.routes mon) ()).Http.body)
  in
  let field key doc = Option.get (Json.member key doc) in
  let int_at keys doc = Option.get (Json.int_value (List.fold_left (Fun.flip field) doc keys)) in
  let cells = scrape "/cells.json" in
  checki "/cells.json coheat total = result total" r.Engine.total_probes
    (int_at [ "coheat"; "total_probes" ] cells);
  checki "/scaling.json coheat total = result total" r.Engine.total_probes
    (int_at [ "coheat"; "total_probes" ] (scrape "/scaling.json"));
  let histogram =
    List.map
      (fun pair ->
        match List.map (fun v -> Option.get (Json.int_value v)) (Json.to_list pair) with
        | [ upper; cells ] -> (upper, cells)
        | _ -> Alcotest.fail "count_histogram entries are [upper, cells] pairs")
      (Json.to_list (field "count_histogram" cells))
  in
  Alcotest.(check (list (pair int int)))
    "/cells.json count_histogram = Engine.count_histogram" (Engine.count_histogram r) histogram

(* The /metrics scrape during a run: valid exposition text, counters
   monotone across scrapes, per-window gauges present. A scraper domain
   hits the live endpoint while the workers serve. *)
let test_windowed_live_scrape_monotone () =
  let keys, inst = lc_fixture 43 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let mon = Engine.Monitor.create ~interval_s:0.02 ~publish_period:64 ~domains:2 inst in
  let server = Http.start ~port:0 (Engine.Monitor.routes mon) in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let port = Http.port server in
      let scraper =
        Domain.spawn (fun () ->
            List.init 8 (fun _ ->
                let status, body = http_get port "/metrics" in
                Unix.sleepf 0.03;
                (status, body)))
      in
      let w =
        run_monitored ~monitor:mon ~domains:2 ~queries_per_domain:30_000 ~seed:11 inst qd
      in
      let scrapes = Domain.join scraper in
      List.iter (fun (status, _) -> checki "every scrape answered 200" 200 status) scrapes;
      let counter_value name body =
        List.find_map
          (fun line ->
            let prefix = name ^ " " in
            if String.length line > String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then
              int_of_string_opt
                (String.sub line (String.length prefix)
                   (String.length line - String.length prefix))
            else None)
          (String.split_on_char '\n' body)
      in
      let queries =
        List.map (fun (_, b) -> Option.value ~default:(-1) (counter_value "engine_queries_total" b)) scrapes
      in
      checkb "every scrape exposes engine_queries_total" true (List.for_all (fun q -> q >= 0) queries);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      checkb "counter monotone across live scrapes" true (monotone queries);
      let _, last_body = List.nth scrapes (List.length scrapes - 1) in
      let has needle =
        let rec go i =
          i + String.length needle <= String.length last_body
          && (String.sub last_body i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      checkb "TYPE lines present (valid exposition text)" true
        (has "# TYPE engine_queries_total counter");
      checkb "per-window gauges appended" true (has "# TYPE engine_hotspot_ratio gauge");
      (* The final cumulative counter must match the completed run. *)
      let _, final_body = http_get port "/metrics" in
      checki "post-run scrape equals the result"
        w.Engine.result.Engine.queries
        (Option.get (counter_value "engine_queries_total" final_body));
      (* And the JSON routes stay parseable under load. *)
      let status, cells = http_get port "/cells.json" in
      checki "cells.json 200" 200 status;
      checkb "cells.json parses" true (Result.is_ok (Json.parse cells));
      let status, windows = http_get port "/windows.json" in
      checki "windows.json 200" 200 status;
      checkb "windows.json parses" true (Result.is_ok (Json.parse windows)))

(* The /updates.json route, both shapes. A dynamic run exposes the
   update-path observatory — schema-tagged, cumulative stats matching
   the outcome's update_stats, windowed u_cells summing to the run's
   cells_written. A static run behind the same monitor answers the
   same route with updates_seen = false and a null cumulative, so
   scrapers need no out-of-band knowledge of the workload kind. *)
let test_updates_json_route () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let get key j =
    match Json.member key j with
    | Some v -> v
    | None -> Alcotest.failf "updates.json missing %S" key
  in
  let geti key j = Option.get (Json.int_value (get key j)) in
  (* Dynamic: the observatory is live. *)
  let rng = Rng.create 61 in
  let keys = Keyset.random rng ~universe ~n in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let snap0 = Epoch.current epoch in
  let domains = 2 in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.6)
      ~initial_pool:keys rng ~universe ~length:(domains * 2_000) ~working_set:(2 * n)
  in
  let mon =
    Engine.Monitor.create_for ~interval_s:0.02 ~domains ~space:(Epoch.space snap0)
      ~max_probes:(Epoch.max_probes snap0) ()
  in
  let server = Http.start ~port:0 (Engine.Monitor.routes mon) in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let o =
        Engine.run
          (Engine.Config.make ~monitor:mon ~domains ~seed:62 ())
          (Engine.Dynamic { epoch; ops; publish_every = 64 })
      in
      let u = Option.get o.Engine.updates in
      let status, body = http_get (Http.port server) "/updates.json" in
      checki "updates.json 200 on a dynamic run" 200 status;
      let j = Result.get_ok (Json.parse body) in
      checks "schema tag" Engine.Monitor.updates_schema_name
        (Option.get (Json.string_value (get "schema" j)));
      checki "schema version" Engine.Monitor.updates_schema_version (geti "version" j);
      checkb "updates_seen on a dynamic run" true
        (Option.get (Json.bool_value (get "updates_seen" j)));
      let cum = get "cumulative" j in
      checkb "cumulative present (not null)" true (cum <> Json.Null);
      checki "cumulative inserts = update_stats" u.Engine.inserts (geti "inserts" cum);
      checki "cumulative deletes = update_stats" u.Engine.deletes (geti "deletes" cum);
      (* update_stats.publications is the epoch structure's lifetime
         count (it includes the one preload publish); the scrape's
         counter is run-scoped. *)
      checki "cumulative publications = update_stats minus the preload"
        (u.Engine.publications - 1)
        (geti "publications" cum);
      checki "cumulative cells = update_stats" u.Engine.cells_written
        (geti "cells_written" cum);
      checki "retired pending zero at quiescence" 0 (geti "retired_pending" cum);
      let windows = Json.to_list (get "windows" j) in
      checkb "windowed update view non-empty" true (windows <> []);
      checki "windowed cells sum to the run's cells_written" u.Engine.cells_written
        (List.fold_left (fun a w -> a + geti "cells_written" w) 0 windows));
  (* Static: same route, absent semantics. *)
  let keys2, inst = lc_fixture 63 in
  let qd = Qdist.uniform ~name:"pos" keys2 in
  let mon2 = Engine.Monitor.create ~interval_s:0.02 ~domains:2 inst in
  let server2 = Http.start ~port:0 (Engine.Monitor.routes mon2) in
  Fun.protect
    ~finally:(fun () -> Http.stop server2)
    (fun () ->
      ignore (run_monitored ~monitor:mon2 ~domains:2 ~queries_per_domain:2_000 ~seed:64 inst qd);
      let status, body = http_get (Http.port server2) "/updates.json" in
      checki "updates.json 200 on a static run" 200 status;
      let j = Result.get_ok (Json.parse body) in
      checkb "updates_seen false on a static run" false
        (Option.get (Json.bool_value (get "updates_seen" j)));
      checkb "cumulative is null on a static run" true (get "cumulative" j = Json.Null);
      checki "no update windows on a static run" 0 (List.length (Json.to_list (get "windows" j))))

(* A builder that drains its few updates long before the readers finish
   publishes its last gauges while queries still pin the levels it
   retired. The post-join reclaim frees them, and the final window must
   carry that settled state: /updates.json agrees with update_stats
   (nothing pending, no lag) instead of echoing the builder's last
   pre-join reading. *)
let test_updates_json_settles_after_join () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let n = 1024 in
  let rng = Rng.create 65 in
  let keys = Keyset.random rng ~universe ~n in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let snap0 = Epoch.current epoch in
  let domains = 2 in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.995)
      ~initial_pool:keys rng ~universe ~length:40_000 ~working_set:(2 * n)
  in
  let mon =
    Engine.Monitor.create_for ~domains ~space:(Epoch.space snap0)
      ~max_probes:(Epoch.max_probes snap0) ()
  in
  let o =
    Engine.run
      (Engine.Config.make ~monitor:mon ~domains ~seed:66 ())
      (Engine.Dynamic { epoch; ops; publish_every = 8 })
  in
  let u = Option.get o.Engine.updates in
  let body = (List.assoc "/updates.json" (Engine.Monitor.routes mon) ()).Http.body in
  let cum = Option.get (Json.member "cumulative" (Result.get_ok (Json.parse body))) in
  let geti key = Option.get (Json.int_value (Option.get (Json.member key cum))) in
  checki "update_stats: nothing pending after the join" 0 u.Engine.retired_pending;
  checki "/updates.json retired_pending = update_stats" u.Engine.retired_pending
    (geti "retired_pending");
  checki "/updates.json reader_lag settled" 0 (geti "reader_lag")

(* The text exposition allows one # TYPE line per metric family. The
   window's gauges must add only families of their own, never one the
   registry snapshot in the same /metrics body already exports — in a
   static run and in a dynamic one, whose last window carries the
   update view. *)
let check_one_type_per_family what mon =
  let body = (List.assoc "/metrics" (Engine.Monitor.routes mon) ()).Http.body in
  let families =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: family :: _ -> Some family
        | _ -> None)
      (String.split_on_char '\n' body)
  in
  checkb (what ^ ": families exported") true (families <> []);
  List.iter
    (fun f ->
      checki
        (Printf.sprintf "%s: # TYPE lines for %s" what f)
        1
        (List.length (List.filter (String.equal f) families)))
    (List.sort_uniq compare families);
  families

let test_metrics_one_type_per_family () =
  let keys, inst = lc_fixture 47 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let mon = Engine.Monitor.create ~interval_s:0.02 ~domains:2 inst in
  ignore (run_monitored ~monitor:mon ~domains:2 ~queries_per_domain:2_000 ~seed:12 inst qd);
  ignore (check_one_type_per_family "static" mon : string list);
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let rng = Rng.create 48 in
  let keys = Keyset.random rng ~universe ~n in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let snap = Epoch.current epoch in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.9)
      ~initial_pool:keys rng ~universe ~length:4_000 ~working_set:(2 * n)
  in
  let mon =
    Engine.Monitor.create_for ~interval_s:0.02 ~domains:2 ~space:(Epoch.space snap)
      ~max_probes:(Epoch.max_probes snap) ()
  in
  let o =
    Engine.run
      (Engine.Config.make ~monitor:mon ~domains:2 ~seed:13 ())
      (Engine.Dynamic { epoch; ops; publish_every = 64 })
  in
  checkb "the last window carries the update view" true
    (match List.rev o.Engine.windows with
    | e :: _ -> e.Window.updates <> None
    | [] -> false);
  let families = check_one_type_per_family "dynamic" mon in
  List.iter
    (fun f -> checkb (f ^ " still exported") true (List.mem f families))
    [ "engine_epoch"; "engine_retired_pending"; "engine_reader_lag"; "engine_window_ups" ]

(* ------------------------------------------------------------------ *)
(* Build-stage telemetry                                                *)
(* ------------------------------------------------------------------ *)

let test_build_obs_spans_and_counters () =
  let rng = Rng.create 31 in
  let keys = Keyset.random rng ~universe ~n in
  let obs = Obs.create () in
  let dict = Lc_core.Dictionary.build ~obs rng ~universe ~keys in
  checkb "build trace balanced" true (Span.check_balanced obs.Obs.spans = Ok ());
  let snap = Obs.snapshot obs in
  checki "trial counter matches the structure's own count"
    (Lc_core.Dictionary.build_trials dict)
    (Option.get (Metrics.Snapshot.counter_value snap "build_ps_trials_total"));
  let rejects =
    Option.get (Metrics.Snapshot.counter_value snap "build_ps_rejects_g_total")
    + Option.get (Metrics.Snapshot.counter_value snap "build_ps_rejects_group_total")
    + Option.get (Metrics.Snapshot.counter_value snap "build_ps_rejects_fks_total")
  in
  checki "rejects = trials - 1" (Lc_core.Dictionary.build_trials dict - 1) rejects;
  checkb "perfect-hash trials recorded" true
    (Option.get (Metrics.Snapshot.counter_value snap "build_perfect_trials_total") > 0);
  let text = Span.summary obs.Obs.spans in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun stage -> checkb (Printf.sprintf "summary names %s" stage) true (contains stage))
    [ "build"; "P(S)-sampling"; "layout-gbas"; "perfect-hashing"; "write-rows" ]

(* Build then serve on one handle: the profile subcommand's flow. Late
   engine registrations must not disturb the build-stage counters. *)
let test_build_then_serve_shared_handle () =
  let rng = Rng.create 32 in
  let keys = Keyset.random rng ~universe ~n in
  let obs = Obs.create () in
  let dict = Lc_core.Dictionary.build ~obs rng ~universe ~keys in
  let inst = Lc_core.Dictionary.instance dict in
  let qd = Qdist.uniform ~name:"pos" keys in
  let r = run_serve ~obs ~domains:2 ~queries_per_domain:300 ~seed:8 inst qd in
  let snap = Obs.snapshot obs in
  checki "build trials survive engine registration"
    (Lc_core.Dictionary.build_trials dict)
    (Option.get (Metrics.Snapshot.counter_value snap "build_ps_trials_total"));
  checki "probe counter reconciles on the shared handle" r.Engine.total_probes
    (Option.get (Metrics.Snapshot.counter_value snap "engine_probes_total"));
  checkb "combined trace balanced" true (Span.check_balanced obs.Obs.spans = Ok ())

let () =
  Alcotest.run "lc_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
          Alcotest.test_case "escape decoding" `Quick test_json_escapes;
          Alcotest.test_case "strict encode rejects non-finite" `Quick
            test_json_strict_rejects_nonfinite;
          Alcotest.test_case "float spellings" `Quick test_json_float_spellings;
        ] );
      ( "json properties",
        [
          QCheck_alcotest.to_alcotest prop_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_exponent_forms;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log-bucket boundaries" `Quick test_metrics_bucket_boundaries;
          Alcotest.test_case "multi-shard merge" `Quick test_metrics_multi_shard_merge;
          Alcotest.test_case "register after shard" `Quick test_metrics_register_after_shard;
          Alcotest.test_case "quantiles" `Quick test_metrics_quantiles;
        ] );
      ( "span",
        [
          Alcotest.test_case "balance" `Quick test_span_balance;
          Alcotest.test_case "chrome json" `Quick test_span_chrome_json;
          Alcotest.test_case "summary" `Quick test_span_summary;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus + json" `Quick test_export_prometheus_and_json;
          Alcotest.test_case "help escaping round-trips" `Quick test_export_help_escaping;
          Alcotest.test_case "write_file replaces atomically" `Quick
            test_export_write_file_atomic;
        ] );
      ( "metrics properties",
        [
          QCheck_alcotest.to_alcotest prop_bucket_boundaries;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
        ] );
      ( "heavy",
        [
          Alcotest.test_case "exact below capacity" `Quick test_heavy_exact_below_capacity;
          Alcotest.test_case "tracks a heavy hitter" `Quick test_heavy_tracks_heavy_hitter;
          Alcotest.test_case "merge of disjoint streams" `Quick test_heavy_merge_disjoint;
          Alcotest.test_case "copy_into" `Quick test_heavy_copy_into;
          Alcotest.test_case "merge edge cases" `Quick test_heavy_merge_edge_cases;
        ] );
      ( "window",
        [
          Alcotest.test_case "tick deltas" `Quick test_window_tick_deltas;
          Alcotest.test_case "ring eviction" `Quick test_window_ring_eviction;
          Alcotest.test_case "alert and gauges" `Quick test_window_alert_and_gauges;
          Alcotest.test_case "alert hysteresis" `Quick test_window_alert_hysteresis;
          Alcotest.test_case "gc view" `Quick test_window_gc_view;
        ] );
      ( "http",
        [
          Alcotest.test_case "routes, errors, stop" `Quick test_http_routes;
          Alcotest.test_case "stalled client holds nothing" `Quick test_http_stalled_client;
        ] );
      ( "monitored serving",
        [
          Alcotest.test_case "sketch agrees with exact counts" `Quick
            test_windowed_sketch_agrees_with_exact;
          Alcotest.test_case "quiet on the low-contention dictionary" `Quick
            test_windowed_quiet_on_low_contention;
          Alcotest.test_case "live scrape is monotone" `Quick
            test_windowed_live_scrape_monotone;
          Alcotest.test_case "cells.json = result after the join" `Quick
            test_cells_json_matches_result_after_join;
          Alcotest.test_case "updates.json both shapes" `Quick test_updates_json_route;
          Alcotest.test_case "updates.json settles after the join" `Quick
            test_updates_json_settles_after_join;
          Alcotest.test_case "metrics: one TYPE line per family" `Quick
            test_metrics_one_type_per_family;
        ] );
      ( "engine",
        [
          Alcotest.test_case "obs off is byte-identical" `Quick
            test_engine_obs_off_is_byte_identical;
          Alcotest.test_case "counters reconcile with result" `Quick test_engine_obs_reconciles;
          Alcotest.test_case "trace parses and balances per domain" `Quick
            test_engine_obs_trace_balanced;
          Alcotest.test_case "spinlock wait observed per probe" `Quick
            test_engine_obs_spinlock_wait;
        ] );
      ( "build",
        [
          Alcotest.test_case "build spans and counters" `Quick test_build_obs_spans_and_counters;
          Alcotest.test_case "build then serve shares a handle" `Quick
            test_build_then_serve_shared_handle;
        ] );
    ]
