(* Tier-1 tests for the multicore serving engine and the reentrant
   instance modes: multi-domain answers agree with sequential [mem],
   atomic probe tallies match a sequential count, the plain-read query
   path validates against the probe specs, and the engine exhibits the
   Theorem 3 hot-spot separation. *)

module Rng = Lc_prim.Rng
module Qdist = Lc_cellprobe.Qdist
module Table = Lc_cellprobe.Table
module Instance = Lc_dict.Instance
module Keyset = Lc_workload.Keyset
module Engine = Lc_parallel.Engine
module Contention = Lc_cellprobe.Contention
module Chisq = Lc_analysis.Chisq

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Static serving through the unified entry point. *)
let serve ?cost ~domains ~queries_per_domain ~seed inst qdist =
  (Engine.run
     (Engine.Config.make ?cost ~domains ~seed ())
     (Engine.Static { inst; qdist; queries_per_domain }))
    .Engine.result

let universe = 1 lsl 18
let n = 256

let lc_fixture seed =
  let rng = Rng.create seed in
  let keys = Keyset.random rng ~universe ~n in
  let dict = Lc_core.Dictionary.build rng ~universe ~keys in
  (rng, keys, Lc_core.Dictionary.instance dict)

(* (a) A multi-domain query storm returns exactly the sequential
   answers: the query path is deterministic in everything but replica
   choice, so domain scheduling and rng streams must not matter. *)
let test_storm_agreement () =
  let rng, keys, inst = lc_fixture 1 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:(4 * n) in
  let queries = Array.append keys negs in
  Rng.shuffle rng queries;
  let seq_rng = Rng.create 99 in
  let expected = Array.map (fun x -> inst.Instance.mem seq_rng x) queries in
  let got = Engine.answer_all ~domains:4 ~seed:5 inst ~queries in
  Array.iteri
    (fun i x ->
      checkb (Printf.sprintf "storm query %d agrees with sequential mem" x) expected.(i)
        got.(i))
    queries

(* A sequential reference count: run [queries] in order through the
   instance's core with a probe that counts each visit per cell. *)
let sequential_counts (inst : Instance.t) ~rng queries =
  let (module D : Lc_dict.Dict_intf.S) = inst.Instance.core in
  let counts = Array.make inst.Instance.space 0 in
  let probe ~step:_ j =
    counts.(j) <- counts.(j) + 1;
    Table.peek D.table j
  in
  Array.iter (fun x -> ignore (D.mem ~probe rng x : bool)) queries;
  counts

(* (b) Per-cell atomic tallies equal a sequential count for the same
   query multiset. Binary search probes deterministically (no replica
   randomness), so equality holds cell-by-cell no matter how the
   multiset is split across domains. *)
let test_atomic_counts_match_sequential_binary_search () =
  let rng = Rng.create 2 in
  let keys = Keyset.random rng ~universe ~n in
  let inst = Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys) in
  let negs = Keyset.negatives rng ~universe ~keys ~count:n in
  let queries = Array.append keys negs in
  let seq_counts = sequential_counts inst ~rng:(Rng.create 3) queries in
  let atomic = Instance.atomic inst in
  let domains = 3 in
  let spawned =
    Array.init domains (fun w ->
        Domain.spawn (fun () ->
            let rng = Rng.create (100 + w) in
            let i = ref w in
            while !i < Array.length queries do
              ignore (atomic.Instance.mem rng queries.(!i) : bool);
              i := !i + domains
            done))
  in
  Array.iter Domain.join spawned;
  let counts = Instance.atomic_counts atomic in
  Array.iteri
    (fun j c -> checki (Printf.sprintf "cell %d tally" j) seq_counts.(j) c)
    counts

(* (b') For the low-contention dictionary the per-cell split depends on
   replica choices, but the number of probes per query does not — so
   total atomic probes must equal the sequential total exactly. *)
let test_atomic_total_matches_sequential_lc () =
  let rng, keys, inst = lc_fixture 4 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:n in
  let queries = Array.append keys negs in
  let seq_total =
    Array.fold_left ( + ) 0 (sequential_counts inst ~rng:(Rng.create 7) queries)
  in
  let atomic = Instance.atomic inst in
  let domains = 4 in
  let spawned =
    Array.init domains (fun w ->
        Domain.spawn (fun () ->
            let rng = Rng.create (200 + w) in
            let i = ref w in
            while !i < Array.length queries do
              ignore (atomic.Instance.mem rng queries.(!i) : bool);
              i := !i + domains
            done))
  in
  Array.iter Domain.join spawned;
  let total = Array.fold_left ( + ) 0 (Instance.atomic_counts atomic) in
  checki "total atomic probes equal sequential probes" seq_total total

(* (c) The uninstrumented (counter-free, reentrant) query path is the
   same algorithm: it answers every key and validates against the exact
   probe specs. *)
let test_uninstrumented_agrees_with_spec () =
  let rng, keys, inst = lc_fixture 6 in
  let u = Instance.uninstrumented inst in
  let probe_rng = Rng.create 8 in
  Array.iter (fun x -> checkb "key present" true (u.Instance.mem probe_rng x)) keys;
  let sample =
    Array.append
      (Array.sub keys 0 (min 40 n))
      (Keyset.negatives rng ~universe ~keys ~count:40)
  in
  match Instance.check_spec_against_mem u ~rng:(Rng.create 9) ~queries:sample with
  | Ok () -> ()
  | Error e -> Alcotest.failf "uninstrumented instance fails spec validation: %s" e

let test_mode_switching () =
  let _, _, inst = lc_fixture 10 in
  checkb "default mode is uninstrumented" true (Instance.mode inst = Instance.Uninstrumented);
  checkb "uninstrumented of uninstrumented is itself" true (Instance.uninstrumented inst == inst);
  let a = Instance.atomic inst in
  checkb "atomic mode" true (Instance.mode a = Instance.Atomic_counters);
  checkb "round trip back to uninstrumented" true
    (Instance.mode (Instance.uninstrumented a) = Instance.Uninstrumented);
  checki "fresh counters are zero" 0 (Array.fold_left ( + ) 0 (Instance.atomic_counts a));
  checkb "atomic_counts rejects non-atomic instances" true
    (try
       ignore (Instance.atomic_counts inst : int array);
       false
     with Invalid_argument _ -> true)

(* Engine-level separation — the acceptance shape of experiment T12:
   the low-contention dictionary's hottest cell stays within a small
   constant factor of the flat bound queries * max_probes / space,
   while unreplicated FKS's parameter cell (probed once per query)
   exceeds it by orders of magnitude. *)
let test_hotspot_separation () =
  let rng = Rng.create 12 in
  let keys = Keyset.random rng ~universe ~n in
  let lc = Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys) in
  let fks = Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys) in
  let qd = Qdist.uniform ~name:"pos" keys in
  List.iter
    (fun domains ->
      let r = serve ~domains ~queries_per_domain:1_500 ~seed:13 lc qd in
      checki "all queries served" (domains * 1_500) r.Engine.queries;
      checki "counts sum to total" r.Engine.total_probes
        (Array.fold_left ( + ) 0 r.Engine.counts);
      checkb "throughput positive" true (r.Engine.throughput > 0.0);
      checkb
        (Printf.sprintf "low-contention hot spot within constant factor (m = %d, ratio %.1f)"
           domains (Engine.hotspot_ratio r))
        true
        (Engine.hotspot_ratio r < 16.0))
    [ 1; 2 ];
  let r = serve ~domains:2 ~queries_per_domain:1_500 ~seed:13 fks qd in
  checkb
    (Printf.sprintf "unreplicated fks hot spot far above flat bound (ratio %.1f)"
       (Engine.hotspot_ratio r))
    true
    (Engine.hotspot_ratio r > 50.0);
  checki "fks parameter cell absorbs one probe per query" r.Engine.queries
    r.Engine.hottest_count

(* The spinlock cost model must not change answers or tallies, only
   timing: each worker's probe sequence depends on its own rng alone, so
   the per-cell counts agree cell for cell. *)
let test_spinlock_same_tallies () =
  let rng = Rng.create 14 in
  let keys = Keyset.random rng ~universe ~n in
  let lc = Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys) in
  let qd = Qdist.uniform ~name:"pos" keys in
  let free = serve ~domains:2 ~queries_per_domain:400 ~seed:15 lc qd in
  let locked =
    serve ~cost:(Engine.Spinlock { hold = 4 }) ~domains:2 ~queries_per_domain:400 ~seed:15
      lc qd
  in
  checki "same total probes under spinlock" free.Engine.total_probes locked.Engine.total_probes;
  Alcotest.(check (array int))
    "same per-cell counts under spinlock" free.Engine.counts locked.Engine.counts

(* Served counts against the exact contention of Definition 1: over
   [queries] queries, cell [j] expects [queries * Phi(j)] probes.
   [groups] partitions the cells by the one probe step that reads them
   (an lc row), so each group's counts, with the queries that never
   reach it as one more bin, are one multinomial. Two statistics, each
   Bonferroni-corrected into a p-value:
   - per group, a Pearson chi-square over bins pooled in cell order to
     an expectation of at least 5. It sees over-dispersion, such as two
     workers drawing from one rng stream;
   - over the cells expected at least 5 times, the largest standardised
     deviation. It sees one starved or hot copy.
   No chi-square spans groups: the rows of one query round share their
   draw, so their counts are not independent. *)
let served_vs_exact ~groups ~counts ~queries (ex : Contention.result) =
  let q = float_of_int queries in
  let expect j = q *. ex.Contention.per_cell.(j) in
  (* Pool (observed, expected) pairs in order until each bin expects at
     least 5; a short tail joins the last bin. *)
  let pooled_p pairs =
    let full, (o, e) =
      List.fold_left
        (fun (full, (o, e)) (o', e') ->
          let o = o + o' and e = e +. e' in
          if e >= 5.0 then ((o, e) :: full, (0, 0.0)) else (full, (o, e)))
        ([], (0, 0.0)) pairs
    in
    match full with
    | [] | [ _ ] -> 1.0
    | (o', e') :: rest ->
      let bins = Array.of_list ((o + o', e +. e') :: rest) in
      Chisq.p_value ~dof:(Array.length bins - 1)
        (Chisq.statistic ~observed:(Array.map fst bins) ~expected:(Array.map snd bins))
  in
  let row_p =
    Array.fold_left
      (fun worst cells ->
        let bins = Array.to_list (Array.map (fun j -> (counts.(j), expect j)) cells) in
        let reached = Array.fold_left (fun a j -> a + counts.(j)) 0 cells in
        let e_reached = Array.fold_left (fun a j -> a +. expect j) 0.0 cells in
        Float.min worst (pooled_p (bins @ [ (queries - reached, q -. e_reached) ])))
      1.0 groups
  in
  let z_max = ref 0.0 and tested = ref 0 in
  Array.iter
    (Array.iter (fun j ->
         let e = expect j in
         if e >= 5.0 then begin
           incr tested;
           let z = (float_of_int counts.(j) -. e) /. Float.sqrt (e *. (1.0 -. (e /. q))) in
           z_max := Float.max !z_max (Float.abs z)
         end))
    groups;
  let bonferroni k p = Float.min 1.0 (float_of_int k *. p) in
  ( bonferroni (Array.length groups) row_p,
    !z_max,
    bonferroni !tested (Chisq.p_value ~dof:1 (!z_max *. !z_max)) )

(* A 2-domain run over lc at n = 4096 serves Q = 400k queries whose
   per-cell counts fit Q * Phi(j), for uniform positive queries and for
   a 50/50 hit/miss mix. A copy the draw never picks, a draw that
   favours some copies, or two workers sharing one rng stream each fail
   one of the two statistics. *)
let test_served_counts_match_exact () =
  let n = 4096 and queries_per_domain = 200_000 in
  let rng = Rng.create 31 in
  let keys = Keyset.random rng ~universe ~n in
  let dict = Lc_core.Dictionary.build rng ~universe ~keys in
  let p = Lc_core.Dictionary.params dict and inst = Lc_core.Dictionary.instance dict in
  let groups =
    Array.init (Lc_core.Params.rows p) (fun row ->
        Array.init p.s (fun j -> Lc_core.Layout.cell p ~row j))
  in
  List.iter
    (fun (dist, seed) ->
      let qdist = Lc_perf.Select.workload rng ~universe ~keys dist in
      let exact = Contention.exact ~cells:inst.Instance.space ~qdist ~spec:inst.Instance.spec in
      let r = serve ~domains:2 ~queries_per_domain ~seed inst qdist in
      let counts = r.Engine.counts in
      Array.iteri
        (fun j c ->
          if exact.Contention.per_cell.(j) = 0.0 && c > 0 then
            Alcotest.failf "%s: cell %d probed %d times outside every step's support" dist j c)
        counts;
      let row_p, z_max, z_p = served_vs_exact ~groups ~counts ~queries:r.Engine.queries exact in
      checkb
        (Printf.sprintf "%s: per-row chi-square fits (Bonferroni p = %.3g)" dist row_p)
        true (row_p >= 1e-3);
      checkb
        (Printf.sprintf "%s: largest cell deviation fits (|z| = %.2f, Bonferroni p = %.3g)" dist
           z_max z_p)
        true (z_p >= 1e-3))
    [ ("pos", 41); ("mix:0.5", 42) ]

(* An obs-off run's set-up allocation is the per-worker tallies, one
   word per cell each, merged in place: at n = 4096 (125,460 cells),
   2 domains and one query each, it must stay under 3 words per cell. *)
let test_run_setup_allocation () =
  let rng = Rng.create 16 in
  let universe = 1 lsl 24 in
  let keys = Keyset.random rng ~universe ~n:4096 in
  let inst = Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys) in
  let qdist = Qdist.uniform ~name:"pos" keys in
  let run () = serve ~domains:2 ~queries_per_domain:1 ~seed:17 inst qdist in
  ignore (run () : Engine.result);
  let s0 = Gc.quick_stat () in
  ignore (Sys.opaque_identity (run ()) : Engine.result);
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.minor_words -. s0.Gc.minor_words +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  let space = inst.Instance.space in
  checkb
    (Printf.sprintf "set-up allocates %.0f words, %.2f x space (%d cells); under 3 x" words
       (words /. float_of_int space) space)
    true
    (words < 3.0 *. float_of_int space)

(* Crafted result records exercising the summarisers directly:
   count_histogram's log buckets must break exactly at powers of two,
   report untouched cells in the (0, k) bucket, and skip empty buckets;
   top_cells must sort descending and tolerate k larger than the table. *)
let fake_result counts =
  let total = Array.fold_left ( + ) 0 counts in
  let hottest = ref 0 in
  Array.iteri (fun j c -> if c > counts.(!hottest) then hottest := j) counts;
  {
    Engine.name = "fake";
    domains = 1;
    queries = total;
    seconds = 1.0;
    throughput = float_of_int total;
    total_probes = total;
    counts;
    hottest_cell = !hottest;
    hottest_count = counts.(!hottest);
    hottest_share =
      (if total = 0 then 0.0 else float_of_int counts.(!hottest) /. float_of_int total);
    flat_bound = 1.0;
  }

let test_count_histogram_buckets () =
  (* Boundaries: 0 | 1 | 2..3 | 4..7 | 8..15. Values 2 and 3 share a
     bucket; 4 opens the next one. *)
  let r = fake_result [| 0; 0; 1; 2; 3; 4; 7; 8 |] in
  Alcotest.(check (list (pair int int)))
    "power-of-two bucket boundaries"
    [ (0, 2); (1, 1); (3, 2); (7, 2); (15, 1) ]
    (Engine.count_histogram r);
  (* All cells untouched: only the (0, k) bucket. *)
  Alcotest.(check (list (pair int int)))
    "all-zero counts collapse to the (0, k) bucket"
    [ (0, 5) ]
    (Engine.count_histogram (fake_result (Array.make 5 0)));
  (* Empty buckets between populated ones are skipped. *)
  Alcotest.(check (list (pair int int)))
    "empty buckets skipped"
    [ (1, 1); (127, 1) ]
    (Engine.count_histogram (fake_result [| 1; 100 |]))

let test_top_cells () =
  let r = fake_result [| 5; 0; 9; 1; 9 |] in
  (match Engine.top_cells r ~k:3 with
  | [ (c1, 9); (c2, 9); (0, 5) ] when (c1 = 2 && c2 = 4) || (c1 = 4 && c2 = 2) -> ()
  | other ->
    Alcotest.failf "unexpected top-3: %s"
      (String.concat "; " (List.map (fun (j, c) -> Printf.sprintf "(%d,%d)" j c) other)));
  checkb "counts weakly descending" true
    (let rec desc = function
       | (_, a) :: ((_, b) :: _ as rest) -> a >= b && desc rest
       | _ -> true
     in
     desc (Engine.top_cells r ~k:5));
  checki "k beyond the table clamps to every cell" 5
    (List.length (Engine.top_cells r ~k:100));
  checki "k = 0 yields nothing" 0 (List.length (Engine.top_cells r ~k:0))

(* Build_failed diagnostics: at n = 4 the FKS condition of P(S) is
   discrete enough that a first-trial rejection happens for a few
   percent of seeds, so with max_trials:1 some seed below 300 surfaces
   the exception, which must carry the stage and the trial budget. *)
(* Dynamic serving through the unified entry point, in each telemetry
   mode (none, obs only, monitor): the engine result, the epoch
   structure's own per-cell tallies and the op stream must agree exactly
   — result.queries = stream queries, Epoch.total_probes = the readers'
   cumulative count, inserts/deletes = Opstream.counts, nothing left
   pending after the join — plus, with obs, the engine_* counters and,
   with a monitor, Σ window queries = result.queries. *)
let test_dynamic_serving_reconciles () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let domains = 3 in
  let serve_in mode =
    let rng = Rng.create 41 in
    let keys = Keyset.random rng ~universe ~n in
    let epoch = Epoch.create rng ~universe () in
    Array.iter (Epoch.insert epoch) keys;
    Epoch.publish epoch;
    let snap0 = Epoch.current epoch in
    let ops =
      Opstream.generate
        ~mix:(Opstream.read_write_mix ~read_fraction:0.9)
        ~initial_pool:keys rng ~universe ~length:(domains * 800) ~working_set:(2 * n)
    in
    let obs, monitor =
      match mode with
      | `Off -> (None, None)
      | `Obs -> (Some (Lc_obs.Obs.create ()), None)
      | `Monitor ->
        let m =
          Engine.Monitor.create_for ~interval_s:0.02 ~domains ~space:(Epoch.space snap0)
            ~max_probes:(Epoch.max_probes snap0) ()
        in
        (Some (Engine.Monitor.obs m), Some m)
    in
    let cfg = Engine.Config.make ?obs ?monitor ~domains ~seed:42 () in
    (epoch, ops, obs, Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 64 }))
  in
  List.iter
    (fun (label, mode) ->
      let check what = checki (Printf.sprintf "%s: %s" label what) in
      let epoch, ops, obs, o = serve_in mode in
      let r = o.Engine.result in
      let ins, del, qry = Opstream.counts ops in
      check "result.queries = stream queries" qry r.Engine.queries;
      check "epoch tallies = reader probes" r.Engine.total_probes (Epoch.total_probes epoch);
      (match o.Engine.updates with
      | None -> Alcotest.failf "%s: dynamic run must report update stats" label
      | Some u ->
        check "inserts applied" ins u.Engine.inserts;
        check "deletes applied" del u.Engine.deletes;
        check "nothing pending after the join" 0 u.Engine.retired_pending;
        checkb (label ^ ": published beyond the preload snapshot") true
          (u.Engine.publications >= 2);
        check "final epoch counts every publication" u.Engine.publications
          (Epoch.epoch (Epoch.current epoch)));
      Option.iter
        (fun obs ->
          let snap = Lc_obs.Obs.snapshot obs in
          let counter name =
            match Lc_obs.Metrics.Snapshot.counter_value snap name with
            | Some v -> v
            | None -> Alcotest.failf "%s: counter %s missing" label name
          in
          check "engine_queries_total" r.Engine.queries (counter "engine_queries_total");
          check "engine_probes_total" r.Engine.total_probes (counter "engine_probes_total");
          check "builder insert counter" ins (counter "engine_inserts_total");
          check "builder delete counter" del (counter "engine_deletes_total"))
        obs;
      if mode = `Monitor then
        check "window queries sum to the result" r.Engine.queries
          (List.fold_left (fun a (w : Lc_obs.Window.entry) -> a + w.queries) 0 o.Engine.windows))
    [ ("no obs", `Off); ("obs only", `Obs); ("monitor", `Monitor) ]

(* Every argument error names the entry point that exists, Engine.run,
   and fires before the run touches its workload. *)
let test_run_rejects_bad_arguments () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let rng, keys, inst = lc_fixture 43 in
  let qdist = Qdist.uniform ~name:"pos" keys in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let snap0 = Epoch.current epoch in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.9)
      ~initial_pool:keys rng ~universe ~length:100 ~working_set:(2 * n)
  in
  let static ?(queries_per_domain = 10) () = Engine.Static { inst; qdist; queries_per_domain } in
  let dynamic ?(publish_every = 8) () = Engine.Dynamic { epoch; ops; publish_every } in
  let monitor () =
    Engine.Monitor.create_for ~domains:2 ~space:(Epoch.space snap0)
      ~max_probes:(Epoch.max_probes snap0) ()
  in
  let rejects what ?cost ?monitor ~domains work =
    match Engine.run (Engine.Config.make ?cost ?monitor ~domains ~seed:44 ()) work with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      checkb
        (Printf.sprintf "%s: %S starts with Engine.run:" what msg)
        true
        (String.starts_with ~prefix:"Engine.run: " msg)
  in
  rejects "static, domains = 0" ~domains:0 (static ());
  rejects "dynamic, domains = 0" ~domains:0 (dynamic ());
  rejects "static, monitor for another domain count" ~monitor:(monitor ()) ~domains:3 (static ());
  rejects "dynamic, monitor for another domain count" ~monitor:(monitor ()) ~domains:3
    (dynamic ());
  rejects "queries_per_domain = 0" ~domains:1 (static ~queries_per_domain:0 ());
  rejects "publish_every = 0" ~domains:1 (dynamic ~publish_every:0 ());
  rejects "Spinlock with Dynamic" ~cost:(Engine.Spinlock { hold = 1 }) ~domains:1 (dynamic ());
  checki "rejected runs publish nothing" 1 (Epoch.publications epoch)

(* Phase accounting: instrumented runs must attribute every worker's
   batch wall exactly — probe + tally + publish + pin + other = wall by
   construction — flush the same totals into the engine_phase_*
   counters, and stay [None] (hot path untouched) when uninstrumented. *)
let phase_parts p =
  let ns = Engine.phase_ns p in
  ns Engine.Probe + ns Engine.Tally + ns Engine.Publish + ns Engine.Pin + ns Engine.Other

(* Every declared phase's flushed engine_phase_<name>_ns_total counter
   must equal the sum of the worker records it came from. *)
let check_phase_counters obs phases =
  let snap = Lc_obs.Obs.snapshot obs in
  List.iter
    (fun phase ->
      let name = Printf.sprintf "engine_phase_%s_ns_total" (Engine.phase_name phase) in
      match Lc_obs.Metrics.Snapshot.counter_value snap name with
      | None -> Alcotest.failf "counter %s missing" name
      | Some v ->
        checki (name ^ " = record sum")
          (Array.fold_left (fun a p -> a + Engine.phase_ns p phase) 0 phases)
          v)
    Engine.phases

let test_phase_accounting_static () =
  let rng, keys, inst = lc_fixture 21 in
  ignore (rng : Rng.t);
  let qd = Qdist.uniform ~name:"pos" keys in
  let obs = Lc_obs.Obs.create () in
  let domains = 3 in
  let cfg = Engine.Config.make ~obs ~domains ~seed:22 () in
  let o = Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain = 600 }) in
  match o.Engine.phases with
  | None -> Alcotest.fail "instrumented static run must carry phase stats"
  | Some phases ->
    checki "one record per worker" domains (Array.length phases);
    Array.iteri
      (fun w p ->
        let ns = Engine.phase_ns p in
        checki (Printf.sprintf "worker %d phases sum to wall" w) (ns Engine.Wall) (phase_parts p);
        checkb (Printf.sprintf "worker %d identity check" w) true (Engine.check_phases p = Ok ());
        checki (Printf.sprintf "worker %d static pin is 0" w) 0 (ns Engine.Pin);
        checkb (Printf.sprintf "worker %d probe time positive" w) true (ns Engine.Probe > 0);
        checkb (Printf.sprintf "worker %d idle non-negative" w) true (ns Engine.Idle >= 0))
      phases;
    check_phase_counters obs phases

let test_phase_accounting_dynamic_pins () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let rng = Rng.create 23 in
  let keys = Keyset.random rng ~universe ~n in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let domains = 2 in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.9)
      ~initial_pool:keys rng ~universe ~length:(domains * 600) ~working_set:(2 * n)
  in
  let obs = Lc_obs.Obs.create () in
  let cfg = Engine.Config.make ~obs ~domains ~seed:24 () in
  let o = Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 64 }) in
  match o.Engine.phases with
  | None -> Alcotest.fail "instrumented dynamic run must carry phase stats"
  | Some phases ->
    checki "one record per worker" domains (Array.length phases);
    Array.iteri
      (fun w p ->
        let ns = Engine.phase_ns p in
        checki (Printf.sprintf "worker %d phases sum to wall" w) (ns Engine.Wall) (phase_parts p);
        checkb (Printf.sprintf "worker %d pin time positive" w) true (ns Engine.Pin > 0))
      phases;
    check_phase_counters obs phases

let test_phase_accounting_off_when_uninstrumented () =
  let _, keys, inst = lc_fixture 25 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let cfg = Engine.Config.make ~domains:2 ~seed:26 () in
  let o = Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain = 200 }) in
  checkb "uninstrumented run reports no phases" true (o.Engine.phases = None)

let test_build_failed_diagnostics () =
  let found = ref None in
  let seed = ref 0 in
  while !found = None && !seed < 300 do
    let rng = Rng.create !seed in
    let keys = Keyset.random rng ~universe ~n:4 in
    (try ignore (Lc_core.Dictionary.build ~max_trials:1 rng ~universe ~keys) with
    | Lc_core.Dictionary.Build_failed { stage; trials; detail } ->
      found := Some (stage, trials, detail));
    incr seed
  done;
  match !found with
  | None -> Alcotest.fail "no seed in [0, 300) exhausted max_trials:1 — suspicious"
  | Some (stage, trials, detail) ->
    checki "trial budget recorded" 1 trials;
    checkb "stage names P(S) rejection sampling" true
      (stage = "P(S) rejection sampling");
    checkb "detail is populated" true (String.length detail > 0)

let () =
  Alcotest.run "lc_parallel"
    [
      ( "engine",
        [
          Alcotest.test_case "storm agreement" `Quick test_storm_agreement;
          Alcotest.test_case "hotspot separation" `Quick test_hotspot_separation;
          Alcotest.test_case "spinlock same tallies" `Quick test_spinlock_same_tallies;
          Alcotest.test_case "served counts match exact contention" `Quick
            test_served_counts_match_exact;
          Alcotest.test_case "run set-up allocation" `Quick test_run_setup_allocation;
          Alcotest.test_case "count_histogram buckets" `Quick test_count_histogram_buckets;
          Alcotest.test_case "top_cells" `Quick test_top_cells;
        ] );
      ( "modes",
        [
          Alcotest.test_case "atomic counts = sequential (binary search)" `Quick
            test_atomic_counts_match_sequential_binary_search;
          Alcotest.test_case "atomic total = sequential (low-contention)" `Quick
            test_atomic_total_matches_sequential_lc;
          Alcotest.test_case "uninstrumented agrees with spec" `Quick
            test_uninstrumented_agrees_with_spec;
          Alcotest.test_case "mode switching" `Quick test_mode_switching;
        ] );
      ( "phases",
        [
          Alcotest.test_case "static attribution reconciles" `Quick
            test_phase_accounting_static;
          Alcotest.test_case "dynamic runs charge pin time" `Quick
            test_phase_accounting_dynamic_pins;
          Alcotest.test_case "absent when uninstrumented" `Quick
            test_phase_accounting_off_when_uninstrumented;
        ] );
      ( "build",
        [
          Alcotest.test_case "Build_failed diagnostics" `Quick test_build_failed_diagnostics;
          Alcotest.test_case "dynamic serving reconciles" `Quick
            test_dynamic_serving_reconciles;
          Alcotest.test_case "run rejects bad arguments" `Quick test_run_rejects_bad_arguments;
        ] );
    ]
