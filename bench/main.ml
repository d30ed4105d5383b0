(* Benchmark harness.

   Two halves:

   1. Bechamel micro-benchmarks — one Test.make per experiment family
      (build cost for T3/T6, query latency for F6, hash-family
      primitives for T4, the contention engine and the recurrence
      solver for F1/F3).

   2. The full experiment suite — every table (T1-T8) and figure
      (F1-F6) of DESIGN.md §4, regenerated and printed, so that
      `dune exec bench/main.exe | tee bench_output.txt` is the complete
      reproduction record. *)

open Bechamel
open Toolkit

module Rng = Lc_prim.Rng

let universe = 1 lsl 20
let bench_n = 1024

(* Shared fixtures, built once. *)
let fixture_rng = Rng.create 4242
let keys = Lc_workload.Keyset.random fixture_rng ~universe ~n:bench_n
let lc = Lc_core.Dictionary.build fixture_rng ~universe ~keys
let lc_inst = Lc_core.Dictionary.instance lc
let fks = Lc_dict.Fks.build fixture_rng ~universe ~keys
let fks_inst = Lc_dict.Fks.instance fks
let dm = Lc_dict.Dm_dict.build fixture_rng ~universe ~keys
let dm_inst = Lc_dict.Dm_dict.instance dm
let cuckoo = Lc_dict.Cuckoo.build fixture_rng ~universe ~keys
let cuckoo_inst = Lc_dict.Cuckoo.instance cuckoo
let bs_inst = Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys)
let pos_dist = Lc_cellprobe.Qdist.uniform ~name:"pos" keys

(* All whole-engine benches below go through the unified entry point,
   [Lc_parallel.Engine.run]. *)
let run_static ?cost ?obs ?monitor ~domains ~queries_per_domain ~seed inst qdist =
  Lc_parallel.Engine.run
    (Lc_parallel.Engine.Config.make ?cost ?obs ?monitor ~domains ~seed ())
    (Lc_parallel.Engine.Static { inst; qdist; queries_per_domain })

let params = Lc_core.Dictionary.params lc

let poly = Lc_hash.Poly_hash.create fixture_rng ~d:3 ~p:params.p ~m:params.s

let dm_hash =
  Lc_hash.Dm_family.create fixture_rng ~d:3 ~p:params.p ~r:params.r ~m:params.s

let query_bench name (inst : Lc_dict.Instance.t) =
  let rng = Rng.create 7 in
  let i = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         i := (!i + 97) mod bench_n;
         ignore (inst.mem rng keys.(!i) : bool)))

let build_bench name f =
  let rng = Rng.create 11 in
  Test.make ~name (Staged.stage (fun () -> ignore (f rng)))

let tests =
  Test.make_grouped ~name:"lowcon"
    [
      Test.make_grouped ~name:"build(T3/T6)"
        [
          build_bench "low-contention" (fun rng -> Lc_core.Dictionary.build rng ~universe ~keys);
          build_bench "fks" (fun rng -> Lc_dict.Fks.build rng ~universe ~keys);
          build_bench "dm" (fun rng -> Lc_dict.Dm_dict.build rng ~universe ~keys);
          build_bench "cuckoo" (fun rng -> Lc_dict.Cuckoo.build rng ~universe ~keys);
          build_bench "binary-search" (fun _ -> Lc_dict.Sorted_array.build ~universe ~keys);
        ];
      Test.make_grouped ~name:"query(F6)"
        [
          query_bench "low-contention" lc_inst;
          query_bench "fks" fks_inst;
          query_bench "dm" dm_inst;
          query_bench "cuckoo" cuckoo_inst;
          query_bench "binary-search" bs_inst;
        ];
      Test.make_grouped ~name:"hash(T4)"
        [
          Test.make ~name:"poly_eval"
            (Staged.stage (fun () -> ignore (Lc_hash.Poly_hash.eval poly 123_456)));
          Test.make ~name:"dm_eval"
            (Staged.stage (fun () -> ignore (Lc_hash.Dm_family.eval dm_hash 123_456)));
          Test.make ~name:"tabulation_eval"
            (let tab =
               Lc_hash.Tabulation.create (Rng.create 29) ~universe_bits:20 ~chunk_bits:10
                 ~m:bench_n
             in
             Staged.stage (fun () -> ignore (Lc_hash.Tabulation.eval tab 123_456)));
          Test.make ~name:"perfect_find_8keys"
            (let rng = Rng.create 13 in
             let bucket = Array.sub keys 0 8 in
             Staged.stage (fun () -> ignore (Lc_hash.Perfect.find rng ~p:params.p ~keys:bucket)));
        ];
      Test.make_grouped ~name:"parallel(T12)"
        [
          (* Whole-engine runs: domain spawn + join + the query storm.
             Small batches keep each bechamel iteration ~milliseconds. *)
          Test.make ~name:"serve_1dom_lowcon_500q"
            (Staged.stage (fun () ->
                 ignore
                   (run_static ~domains:1 ~queries_per_domain:500 ~seed:3 lc_inst pos_dist)));
          Test.make ~name:"serve_2dom_lowcon_500q"
            (Staged.stage (fun () ->
                 ignore
                   (run_static ~domains:2 ~queries_per_domain:500 ~seed:3 lc_inst pos_dist)));
          Test.make ~name:"serve_2dom_fks_500q"
            (Staged.stage (fun () ->
                 ignore
                   (run_static ~domains:2 ~queries_per_domain:500 ~seed:3 fks_inst pos_dist)));
          Test.make ~name:"serve_2dom_binsearch_500q"
            (Staged.stage (fun () ->
                 ignore
                   (run_static ~domains:2 ~queries_per_domain:500 ~seed:3 bs_inst pos_dist)));
          (* Telemetry overhead: the same run with per-domain metric
             shards, latency histograms, and span timelines attached. *)
          Test.make ~name:"serve_2dom_lowcon_500q_obs"
            (Staged.stage (fun () ->
                 let obs = Lc_obs.Obs.create () in
                 ignore
                   (run_static ~obs ~domains:2 ~queries_per_domain:500 ~seed:3 lc_inst
                      pos_dist)));
        ];
      Test.make_grouped ~name:"obs"
        [
          (* The primitives the serving hot path pays for when ?obs is
             supplied: a shard-local counter bump, a log-bucketed
             histogram observation, and a span begin/end pair. *)
          Test.make ~name:"counter_incr"
            (let obs = Lc_obs.Obs.create () in
             let c = Lc_obs.Metrics.counter obs.metrics "bench_counter" in
             let sh = Lc_obs.Obs.shard obs ~domain:0 in
             Staged.stage (fun () -> Lc_obs.Metrics.incr sh c 1));
          Test.make ~name:"histogram_observe"
            (let obs = Lc_obs.Obs.create () in
             let h = Lc_obs.Metrics.histogram obs.metrics "bench_hist" in
             let sh = Lc_obs.Obs.shard obs ~domain:0 in
             let v = ref 1 in
             Staged.stage (fun () ->
                 v := (!v * 7) land 0xFFFFF;
                 Lc_obs.Metrics.observe sh h !v));
          Test.make ~name:"span_begin_end"
            (let obs = Lc_obs.Obs.create () in
             let tl = Lc_obs.Obs.timeline obs ~tid:0 in
             Staged.stage (fun () ->
                 Lc_obs.Span.begin_span tl "bench";
                 Lc_obs.Span.end_span tl));
          Test.make ~name:"clock_now_ns"
            (Staged.stage (fun () -> ignore (Lc_obs.Clock.now_ns () : int64)));
        ];
      Test.make_grouped ~name:"monitor(T13)"
        [
          (* The extra work a monitored worker pays per probe (sketch
             scan) and per publish_period queries (seqlock publication),
             plus a whole monitored run against the plain one above. *)
          Test.make ~name:"heavy_observe_k16"
            (let s = Lc_obs.Heavy.create ~k:16 in
             let v = ref 1 in
             Staged.stage (fun () ->
                 v := (!v * 7) land 0xFFFF;
                 Lc_obs.Heavy.observe s !v));
          Test.make ~name:"window_publish"
            (let obs = Lc_obs.Obs.create () in
             ignore
               (Lc_obs.Metrics.counter obs.metrics Lc_obs.Window.queries_counter
                 : Lc_obs.Metrics.counter);
             let sh = Lc_obs.Obs.shard obs ~domain:0 in
             let w =
               Lc_obs.Window.create obs.metrics
                 { Lc_obs.Window.space = 1024; max_probes = 4; top_k = 16; alert_factor = 8.0 }
                 ~publishers:1
             in
             let pub = Lc_obs.Window.publisher w 0 in
             let sketch = Lc_obs.Heavy.create ~k:16 in
             Staged.stage (fun () -> Lc_obs.Window.publish pub sh sketch));
          Test.make ~name:"serve_2dom_lowcon_500q_monitored"
            (Staged.stage (fun () ->
                 let mon = Lc_parallel.Engine.Monitor.create ~interval_s:0.05 ~domains:2 lc_inst in
                 ignore
                   (run_static ~monitor:mon ~domains:2 ~queries_per_domain:500 ~seed:3
                      lc_inst pos_dist)));
          (* Flight recorder armed: the same monitored run with a
             journal attached. Workers record once per publication and
             the monitor once per window, so this twin must sit within a
             few percent of the bare monitored run above. *)
          Test.make ~name:"journal_record"
            (let j = Lc_obs.Journal.create ~writers:1 ~capacity:256 in
             Staged.stage (fun () ->
                 Lc_obs.Journal.record j ~writer:0 (Lc_obs.Journal.Publish { queries = 500 })));
          Test.make ~name:"serve_2dom_lowcon_500q_recorded"
            (Staged.stage (fun () ->
                 let journal = Lc_obs.Journal.create ~writers:4 ~capacity:256 in
                 let mon =
                   Lc_parallel.Engine.Monitor.create ~interval_s:0.05 ~journal ~domains:2 lc_inst
                 in
                 ignore
                   (run_static ~monitor:mon ~domains:2 ~queries_per_domain:500 ~seed:3
                      lc_inst pos_dist)));
        ];
      Test.make_grouped ~name:"harness(T1/T2)"
        [
          Test.make ~name:"contention_exact_n1024"
            (Staged.stage (fun () ->
                 ignore
                   (Lc_cellprobe.Contention.exact ~cells:lc_inst.space ~qdist:pos_dist
                      ~spec:lc_inst.spec)));
        ];
      Test.make_grouped ~name:"recurrence(F3)"
        [
          Test.make ~name:"min_rounds_2^4096"
            (Staged.stage (fun () ->
                 ignore
                   (Lc_lowerbound.Recursion.min_rounds ~b:4096.0 ~phi_s:16_777_216.0
                      ~log2_n:4096.0)));
        ];
      Test.make_grouped ~name:"dynamic(T9)"
        [
          Test.make ~name:"insert_512_stream"
            (let rng = Rng.create 17 in
             Staged.stage (fun () ->
                 let t = Lc_dynamic.Dynamic.create rng ~universe () in
                 for x = 1 to 512 do
                   Lc_dynamic.Dynamic.insert t x
                 done));
        ];
      Test.make_grouped ~name:"lowerbound(F4/F9)"
        [
          Test.make ~name:"coupling_draw_64x128"
            (let rng = Rng.create 19 in
             let marginals =
               Lc_lowerbound.Probe_spec.random rng ~rows:64 ~cols:128 ~support:4
             in
             Staged.stage (fun () ->
                 ignore (Lc_lowerbound.Coupling.draw rng ~marginals)));
          Test.make ~name:"adaptive_game_n64"
            (let rng = Rng.create 23 in
             let small_keys = Array.sub keys 0 64 in
             let dict = Lc_core.Dictionary.build rng ~universe ~keys:small_keys in
             let inst = Lc_core.Dictionary.instance dict in
             Staged.stage (fun () ->
                 ignore
                   (Lc_lowerbound.Game.play_adaptive rng inst ~queries:small_keys ~phi:0.01
                      ~bits:(Lc_cellprobe.Table.bits inst.table) ~rounds:inst.max_probes)));
        ];
    ]

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  Analyze.merge ols instances results

let print_benchmarks results =
  print_endline "== Bechamel micro-benchmarks (monotonic clock, ns/run) ==";
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-45s %14.1f ns/run\n" name est
      | _ -> Printf.printf "  %-45s (no estimate)\n" name)
    rows;
  print_newline ()

let () =
  print_benchmarks (run_benchmarks ());
  print_endline "== Experiment suite: every table and figure of DESIGN.md section 4 ==";
  print_newline ();
  Lc_experiments.Registry.install ();
  print_string (Lc_analysis.Experiment.run_all ~seed:20100613)
