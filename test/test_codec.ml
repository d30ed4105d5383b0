(* Tier-1 tests for the schema layer: the Codec combinators, every
   lowcon-* document decoding and re-encoding to the same bytes (the
   committed artifacts and scrapes of monitored runs), one planted
   violation per invariant of the three served documents, and qcheck
   properties that no document decoder ever raises. *)

module Codec = Lc_obs.Codec
module Json = Lc_obs.Json
module Heavy = Lc_obs.Heavy
module Engine = Lc_parallel.Engine
module Controller = Lc_control.Controller
module Rng = Lc_prim.Rng
module Select = Lc_perf.Select

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let contains needle hay =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let parse s = match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "parse: %s" e

(* ------------------------------------------------------------------ *)
(* Combinators                                                          *)
(* ------------------------------------------------------------------ *)

type point = { x : int; label : string option; tags : string list }

let point =
  Codec.(
    obj (fun x label tags -> { x; label; tags })
    |> field "x" (fun p -> p.x) int
    |> opt "label" (fun p -> p.label) string
    |> field "tags" (fun p -> p.tags) (list string)
    |> seal
    |> check (fun p -> if p.x >= 0 then Ok () else Error "x must be >= 0"))

let test_object_codec () =
  let p = { x = 3; label = None; tags = [ "a" ] } in
  checks "optional member absent when None" {|{"x":3,"tags":["a"]}|}
    (Json.to_string (Codec.encode point p));
  checkb "round-trips" true (Codec.decode point (Codec.encode point p) = Ok p);
  checkb "unknown members are ignored" true
    (Codec.decode point (parse {|{"extra":1,"x":3,"tags":["a"]}|}) = Ok p);
  let err s = match Codec.decode point (parse s) with Ok _ -> "" | Error e -> e in
  checks "missing member" {|missing member "x"|} (err {|{"tags":[]}|});
  checks "wrong type names the member" "label: expected a string"
    (err {|{"x":1,"label":2,"tags":[]}|});
  checks "a list member must be an array" "tags: expected an array"
    (err {|{"x":1,"tags":{"a":1}}|});
  checks "element errors carry their index" "tags[1]: expected a string"
    (err {|{"x":1,"tags":["a",2]}|});
  checks "checks run on decode" "x must be >= 0" (err {|{"x":-1,"tags":[]}|});
  let nested = Codec.list point in
  (match Codec.decode nested (parse {|[{"x":1,"tags":[]},{"x":-1,"tags":[]}]|}) with
  | Error e -> checks "nested path" "[1]: x must be >= 0" e
  | Ok _ -> Alcotest.fail "nested violation accepted");
  checkb "a float reads an integer-valued number" true
    (Codec.decode Codec.float (Json.Int 3) = Ok 3.0)

type shape = Circle of float | Square of { side : int }

let shape =
  Codec.(
    tagged "kind"
      [
        case "circle"
          (function Circle r -> Some r | _ -> None)
          (fun r -> Circle r)
          (obj Fun.id |> field "r" Fun.id float |> seal);
        case "square"
          (function Square { side } -> Some side | _ -> None)
          (fun side -> Square { side })
          (obj Fun.id |> field "side" Fun.id int |> seal);
      ])

let test_variant_codecs () =
  checks "tag first" {|{"kind":"square","side":2}|}
    (Json.to_string (Codec.encode shape (Square { side = 2 })));
  checkb "tagged round-trip" true
    (Codec.decode shape (Codec.encode shape (Circle 1.5)) = Ok (Circle 1.5));
  checkb "unknown tag rejected" true
    (Result.is_error (Codec.decode shape (parse {|{"kind":"hexagon"}|})));
  let flag = Codec.(flagged "on" (obj Fun.id |> field "n" Fun.id int |> seal)) in
  checks "flag off" {|{"on":false}|} (Json.to_string (Codec.encode flag None));
  checks "flag on" {|{"on":true,"n":4}|} (Json.to_string (Codec.encode flag (Some 4)));
  checkb "flag off ignores the rest" true
    (Codec.decode flag (parse {|{"on":false,"n":"x"}|}) = Ok None);
  checkb "flag on requires the members" true
    (Result.is_error (Codec.decode flag (parse {|{"on":true}|})))

(* ------------------------------------------------------------------ *)
(* Documents                                                            *)
(* ------------------------------------------------------------------ *)

(* Each document as its validator plus a round-trip of its exact bytes,
   so the typed documents can share one list. *)
let doc d =
  let name, check = Codec.validator d in
  let same_bytes text =
    Result.map (fun v -> Codec.to_string d v = text) (Codec.of_string d text)
  in
  (name, (check, same_bytes))

let documents =
  [
    doc Lc_perf.Artifact.document;
    doc Lc_perf.Scaling.document;
    doc Lc_perf.Postmortem.document;
    doc Lc_perf.Diff.document;
    doc Lc_lint.Report.document;
    doc Engine.Monitor.cells_document;
    doc Engine.Monitor.windows_document;
    doc Engine.Monitor.updates_document;
    doc Engine.Monitor.scaling_document;
    doc Engine.Monitor.control_document;
  ]

let schema_of text =
  match Json.member "schema" (parse text) with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "document has no schema member"

let check_same_bytes what text =
  match List.assoc_opt (schema_of text) documents with
  | None -> Alcotest.failf "%s: no document for schema %s" what (schema_of text)
  | Some (_, same_bytes) -> (
    match same_bytes text with
    | Ok same -> checkb (what ^ " re-encodes to the same bytes") true same
    | Error e -> Alcotest.failf "%s does not decode: %s" what e)

(* dune copies the committed documents next to the test tree. *)
let committed =
  [ "BENCH_0.json"; "BENCH_1.json"; "BENCH_2.json"; "BENCH_3.json";
    "artifacts/t18-control.json"; "artifacts/t18-postmortem.json" ]

let read_committed name =
  let path = Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." name) in
  match Codec.read_file path with Ok s -> s | Error e -> Alcotest.fail e

let test_committed_documents () =
  List.iter (fun name -> check_same_bytes name (read_committed name)) committed

(* ---------------- live documents ---------------- *)

let universe = 1 lsl 16
let body mon route = (List.assoc route (Engine.Monitor.routes mon) ()).Lc_obs.Http.body

let static_monitor =
  lazy
    (let rng = Rng.create 7 in
     let keys = Lc_workload.Keyset.random rng ~universe ~n:256 in
     let inst = Select.structure rng ~universe ~keys "lc" in
     let qdist = Select.workload rng ~universe ~keys "pos" in
     let mon = Engine.Monitor.create ~interval_s:0.01 ~domains:2 inst in
     ignore
       (Engine.run
          (Engine.Config.make ~monitor:mon ~domains:2 ~seed:3 ())
          (Engine.Static { inst; qdist; queries_per_domain = 5_000 }));
     mon)

let dynamic_monitor =
  lazy
    (let module Epoch = Lc_dynamic.Epoch in
     let module Opstream = Lc_workload.Opstream in
     let rng = Rng.create 8 in
     let keys = Lc_workload.Keyset.random rng ~universe ~n:256 in
     let epoch = Epoch.create rng ~universe () in
     Array.iter (Epoch.insert epoch) keys;
     Epoch.publish epoch;
     let snap = Epoch.current epoch in
     let ops =
       Opstream.generate
         ~mix:(Opstream.read_write_mix ~read_fraction:0.6)
         ~initial_pool:keys rng ~universe ~length:4_000 ~working_set:512
     in
     let mon =
       Engine.Monitor.create_for ~interval_s:0.01 ~domains:2 ~space:(Epoch.space snap)
         ~max_probes:(Epoch.max_probes snap) ()
     in
     ignore
       (Engine.run
          (Engine.Config.make ~monitor:mon ~domains:2 ~seed:4 ())
          (Engine.Dynamic { epoch; ops; publish_every = 64 }));
     mon)

(* A controller driven through two raises and a lower, as in the
   controller tests: decisions 1 -> 8 -> 64 -> 8 from base boost 1. *)
let controlled_monitor =
  lazy
    (let mon =
       Engine.Monitor.create_for ~interval_s:3600.0 ~domains:1 ~space:1024 ~max_probes:8 ()
     in
     let ctl = Controller.create ~space:1024 ~max_probes:8 ~boost:1 () in
     Engine.Monitor.attach_controller mon ctl;
     let w = ref 0 in
     let feed top =
       ignore (Controller.observe ctl ~window:!w ~queries:1000 top : Controller.decision option);
       incr w
     in
     for i = 1 to 8 do
       feed [ { Heavy.item = 42; count = i * 4000; err = 3 } ]
     done;
     for _ = 1 to 60 do
       feed []
     done;
     mon)

let scrapes () =
  let s = Lazy.force static_monitor
  and d = Lazy.force dynamic_monitor
  and c = Lazy.force controlled_monitor in
  [
    ("static /cells.json", body s "/cells.json");
    ("dynamic /cells.json", body d "/cells.json");
    ("static /windows.json", body s "/windows.json");
    ("dynamic /windows.json", body d "/windows.json");
    ("static /updates.json", body s "/updates.json");
    ("dynamic /updates.json", body d "/updates.json");
    ("static /scaling.json", body s "/scaling.json");
    ("dynamic /scaling.json", body d "/scaling.json");
    ("/control.json without a controller", Engine.Monitor.control_json s);
    ("/control.json with a controller", Engine.Monitor.control_json c);
  ]

let test_live_documents () =
  List.iter (fun (what, text) -> check_same_bytes what text) (scrapes ());
  let validate text =
    match List.assoc_opt (schema_of text) documents with
    | Some (check, _) -> check (parse text)
    | None -> Error "no document"
  in
  checkb "a dynamic run has update windows" true
    (match validate (body (Lazy.force dynamic_monitor) "/updates.json") with
    | Ok line -> contains "updates seen" line && not (contains " 0 update window" line)
    | Error _ -> false);
  checkb "the controller's log reconciles" true
    (validate (Engine.Monitor.control_json (Lazy.force controlled_monitor))
    = Ok "lowcon-control v1, 3 decision(s), chain reconciled")

(* ---------------- planted violations ---------------- *)

(* Rewrite the value at [path]: object keys, or decimal list indexes. *)
let rec edit path f j =
  match (path, j) with
  | [], _ -> f j
  | k :: rest, Json.Obj kvs ->
    Json.Obj (List.map (fun (k', v) -> if k' = k then (k', edit rest f v) else (k', v)) kvs)
  | k :: rest, Json.List xs ->
    Json.List (List.mapi (fun i v -> if string_of_int i = k then edit rest f v else v) xs)
  | _ -> j

let set path v = edit path (fun _ -> v)

let rename path ~from ~into =
  edit path (function
    | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> ((if k = from then into else k), v)) kvs)
    | j -> j)

let rejects d what needle j =
  match Codec.of_json d j with
  | Ok _ -> Alcotest.failf "%s was accepted" what
  | Error e -> checkb (Printf.sprintf "%s rejected (%s)" what e) true (contains needle e)

let test_cells_violations () =
  let d = Engine.Monitor.cells_document in
  let static = parse (body (Lazy.force static_monitor) "/cells.json") in
  let dynamic = parse (body (Lazy.force dynamic_monitor) "/cells.json") in
  rejects d "a sketch entry whose err exceeds its count" "outside [0, count"
    (set [ "top"; "0"; "err" ] (Json.Int 1_000_000_000) static);
  rejects d "a count histogram without exact counts" "must be empty"
    (set [ "count_histogram" ] (Json.List [ Json.List [ Json.Int 0; Json.Int 5 ] ]) dynamic);
  rejects d "exact counts without a count histogram" "must not be empty"
    (set [ "count_histogram" ] (Json.List []) static);
  rejects d "a histogram bucket that is not a pair" "count_histogram[0]"
    (set [ "count_histogram"; "0" ] (Json.List [ Json.Int 1 ]) static);
  rejects d "a co-heat ratio of 1" "ratio out of [0, 1)"
    (set [ "coheat"; "ratio" ] (Json.Float 1.0) static);
  rejects d "an unknown version" "version 2" (set [ "version" ] (Json.Int 2) static)

let test_windows_violations () =
  let d = Engine.Monitor.windows_document in
  let doc = parse (body (Lazy.force static_monitor) "/windows.json") in
  rejects d "a repeated window" "not consecutive"
    (edit [ "windows" ] (function Json.List (w :: _) -> Json.List [ w; w ] | j -> j) doc);
  rejects d "a firing window alert_fired_total does not count" "alert_fired_total is 0"
    (set [ "alert_fired_total" ] (Json.Int 0) (set [ "windows"; "0"; "alert" ] (Json.Bool true) doc));
  rejects d "a window without its top cells" "top_cells"
    (rename [ "windows"; "0" ] ~from:"top_cells" ~into:"cells" doc);
  rejects d "a GC view of the wrong type" "windows[0].gc"
    (set [ "windows"; "0"; "gc" ] (Json.Int 1) doc);
  rejects d "an unknown version" "version 2" (set [ "version" ] (Json.Int 2) doc)

let test_updates_violations () =
  let d = Engine.Monitor.updates_document in
  let dynamic = parse (body (Lazy.force dynamic_monitor) "/updates.json") in
  let static = parse (body (Lazy.force static_monitor) "/updates.json") in
  rejects d "cumulative counters on a run without updates" "must be null"
    (set [ "updates_seen" ] (Json.Bool false) dynamic);
  rejects d "null cumulative on a run with updates" "must be an object"
    (set [ "updates_seen" ] (Json.Bool true) static);
  rejects d "a renamed t_start_s" "t_start_s"
    (rename [ "windows"; "0" ] ~from:"t_start_s" ~into:"t_begin_s" dynamic);
  rejects d "a window member of the wrong type" "windows[0].write_amp"
    (set [ "windows"; "0"; "write_amp" ] (Json.String "high") dynamic);
  rejects d "an unknown version" "version 2" (set [ "version" ] (Json.Int 2) dynamic)

let test_scaling_live_violations () =
  let d = Engine.Monitor.scaling_document in
  let doc = parse (body (Lazy.force static_monitor) "/scaling.json") in
  rejects d "phases that do not sum to wall" "does not reconcile"
    (set [ "phases"; "wall_ns" ] (Json.Int (-1)) doc);
  rejects d "a missing phase" "idle_ns"
    (rename [ "phases" ] ~from:"idle_ns" ~into:"idle" doc);
  rejects d "a co-heat ratio of 1" "ratio out of [0, 1)"
    (set [ "coheat"; "ratio" ] (Json.Float 1.0) doc);
  rejects d "a negative co-heat ratio" "ratio out of [0, 1)"
    (set [ "coheat"; "ratio" ] (Json.Float (-0.25)) doc);
  rejects d "a renamed GC window member" "heap_words"
    (rename [ "gc"; "windows"; "0" ] ~from:"heap_words" ~into:"heap" doc);
  rejects d "an unknown version" "version 3" (set [ "version" ] (Json.Int 3) doc)

let test_control_violations () =
  let d = Engine.Monitor.control_document in
  let doc = parse (Engine.Monitor.control_json (Lazy.force controlled_monitor)) in
  rejects d "a decision count that disagrees with the log" "decisions_total is 4"
    (set [ "decisions_total" ] (Json.Int 4) doc);
  rejects d "a skipped decision id" "not consecutive"
    (set [ "decisions"; "1"; "id" ] (Json.Int 3) doc);
  rejects d "a boost that is not a power of two" "power-of-two"
    (set [ "decisions"; "0"; "new_boost" ] (Json.Int 3) doc);
  rejects d "a boost above max_boost" "power-of-two"
    (set [ "decisions"; "0"; "new_boost" ] (Json.Int 8192) doc);
  rejects d "a log that does not chain from the base boost" "does not chain from 2"
    (set [ "boost"; "base" ] (Json.Int 2) doc);
  rejects d "an unknown action" "action"
    (set [ "decisions"; "2"; "action" ] (Json.String "hold") doc);
  rejects d "an attached controller without its state" "missing member \"boost\""
    (set [ "attached" ] (Json.Bool true)
       (parse (Engine.Monitor.control_json (Lazy.force static_monitor))));
  rejects d "an unknown version" "version 9" (set [ "version" ] (Json.Int 9) doc)

(* ------------------------------------------------------------------ *)
(* Totality                                                             *)
(* ------------------------------------------------------------------ *)

(* One encoded sample of every document; the generators draw object
   keys, string values and schema headers from them. *)
let samples =
  lazy
    (let diff =
       let load name =
         let path =
           Filename.concat (Filename.dirname Sys.executable_name) ("fixtures/" ^ name)
         in
         match Lc_perf.Artifact.load path with Ok a -> a | Error e -> Alcotest.fail e
       in
       Lc_perf.Diff.to_json
         (Lc_perf.Diff.compare_artifacts (load "bench_a.json") (load "bench_b_regressed.json"))
     in
     let scaling =
       Codec.to_json Lc_perf.Scaling.document
         (Lc_perf.Scaling.run ~seed:5
            {
              Lc_perf.Scaling.structure = "lc";
              workload = "pos";
              domain_counts = [ 1; 2; 3 ];
              queries_per_domain = 100;
              trials = 1;
              n = 64;
            })
     in
     let lint =
       let f =
         Lc_lint.Finding.make ~rule:Lc_lint.Rule.LC005 ~file:"lib/a.ml" ~line:3 ~col:2
           ~context:"f" ~message:"Obj.magic"
       in
       Lc_lint.Report.to_json
         {
           Lc_lint.Report.root = ".";
           files_scanned = 1;
           rules = Lc_lint.Rule.all;
           results =
             [
               { Lc_lint.Report.finding = f; suppressed = None };
               {
                 Lc_lint.Report.finding = { f with Lc_lint.Finding.words = Some 2 };
                 suppressed =
                   Some
                     {
                       Lc_lint.Report.justification = "ok";
                       expires = Some "2030-01-01";
                       entry_line = 4;
                     };
               };
             ];
           parse_errors =
             [ { Lc_lint.Report.pe_file = "b.ml"; pe_line = 1; pe_col = 0; pe_message = "x" } ];
           baseline =
             Some
               {
                 Lc_lint.Report.baseline_path = "lint-baseline.txt";
                 entries = 2;
                 used = 1;
                 unused = [ ("LC001 x", 2) ];
                 expired = [];
                 untagged = [];
               };
         }
     in
     List.map (fun name -> parse (read_committed name)) committed
     @ List.map (fun (_, text) -> parse text) (scrapes ())
     @ [ diff; scaling; lint ])

let rec fold_json f acc j =
  let acc = f acc j in
  match j with
  | Json.Obj kvs -> List.fold_left (fun acc (_, v) -> fold_json f acc v) acc kvs
  | Json.List xs -> List.fold_left (fold_json f) acc xs
  | _ -> acc

let dedup l = List.sort_uniq compare l

let pools =
  lazy
    (let s = Lazy.force samples in
     let keys =
       dedup
         (List.fold_left
            (fold_json (fun acc -> function Json.Obj kvs -> List.map fst kvs @ acc | _ -> acc))
            [] s)
     in
     let strings =
       dedup
         (List.fold_left
            (fold_json (fun acc -> function
               | Json.String v when String.length v <= 24 -> v :: acc
               | _ -> acc))
            [] s)
     in
     let headers =
       List.filter_map
         (fun j ->
           match (Json.member "schema" j, Json.member "version" j) with
           | Some s, Some v -> Some (s, v)
           | _ -> None)
         s
     in
     (keys, strings, dedup headers))

let gen_json keys strings =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) (int_range (-2) 9000);
                 map (fun f -> Json.Float f) (float_range (-1.0) 2.0);
                 map (fun s -> Json.String s) (oneofl strings);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 3) (self (n - 1))));
                 ( 3,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 8) (pair (oneofl keys) (self (n - 1)))) );
               ]))

(* Decoding is all the property observes: an exception fails it. *)
let decodes_without_raising j =
  List.iter (fun (_, (check, _)) -> ignore (check j : (string, string) result)) documents;
  true

let prop_random_documents =
  QCheck.Test.make ~count:400 ~name:"no decoder raises on generated documents"
    (QCheck.make
       QCheck.Gen.(
         let keys, strings, headers = Lazy.force pools in
         map2
           (fun (s, v) body ->
             match body with
             | Json.Obj kvs -> Json.Obj (("schema", s) :: ("version", v) :: kvs)
             | j -> j)
           (oneofl headers) (gen_json keys strings)))
    decodes_without_raising

(* Every path into a sample, so a mutation can reach any depth. *)
let paths j =
  let rec go prefix acc = function
    | Json.Obj kvs ->
      List.fold_left (fun acc (k, v) -> go (k :: prefix) (List.rev (k :: prefix) :: acc) v) acc kvs
    | Json.List xs ->
      snd
        (List.fold_left
           (fun (i, acc) v ->
             let k = string_of_int i in
             (i + 1, go (k :: prefix) (List.rev (k :: prefix) :: acc) v))
           (0, acc) xs)
    | _ -> acc
  in
  Array.of_list (go [] [] j)

let prop_mutated_documents =
  QCheck.Test.make ~count:300 ~name:"no decoder raises on a mutated real document"
    (QCheck.make
       QCheck.Gen.(
         let keys, strings, _ = Lazy.force pools in
         let docs = Array.of_list (List.map (fun j -> (j, paths j)) (Lazy.force samples)) in
         let* j, ps = oneofa docs in
         let* p = oneofa ps in
         let* replacement = gen_json keys strings in
         return (set p replacement j)))
    decodes_without_raising

let prop_corrupted_bytes =
  QCheck.Test.make ~count:150 ~name:"no decoder raises on truncated or corrupted bytes"
    (QCheck.make
       QCheck.Gen.(
         let texts = Array.of_list (List.map read_committed committed) in
         let* text = oneofa texts in
         let* pos = int_bound (String.length text - 1) in
         let* truncate = bool in
         let* c =
           oneofl [ '0'; '9'; '-'; '.'; 'e'; '"'; ','; ':'; '{'; '}'; '['; ']'; 'n'; 't'; ' ' ]
         in
         return
           (if truncate then String.sub text 0 pos
            else String.mapi (fun i x -> if i = pos then c else x) text)))
    (fun text ->
      match Json.parse text with Ok j -> decodes_without_raising j | Error _ -> true)

let () =
  Alcotest.run "lc_codec"
    [
      ( "combinators",
        [
          Alcotest.test_case "objects" `Quick test_object_codec;
          Alcotest.test_case "variants and flags" `Quick test_variant_codecs;
        ] );
      ( "documents",
        [
          Alcotest.test_case "committed documents keep their bytes" `Quick
            test_committed_documents;
          Alcotest.test_case "live documents keep their bytes" `Quick test_live_documents;
          Alcotest.test_case "cells invariants" `Quick test_cells_violations;
          Alcotest.test_case "windows invariants" `Quick test_windows_violations;
          Alcotest.test_case "updates invariants" `Quick test_updates_violations;
          Alcotest.test_case "scaling-live invariants" `Quick test_scaling_live_violations;
          Alcotest.test_case "control invariants" `Quick test_control_violations;
        ] );
      ( "totality",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_documents; prop_mutated_documents; prop_corrupted_bytes ] );
    ]
