type publisher = {
  epoch : int Atomic.t;
  metrics_slot : Metrics.frozen;
  sketch_slot : Heavy.t;
}

let publish pub shard sketch =
  (* Odd epoch = publication in progress. The two blits below are plain
     stores; the atomic bumps around them order the publication against
     readers (see [stable_read]). *)
  Atomic.incr pub.epoch;
  Metrics.freeze_into shard pub.metrics_slot;
  Heavy.copy_into sketch pub.sketch_slot;
  Atomic.incr pub.epoch

(* The metric names a window diffs. The engine registers its metrics
   under these names; nothing else spells them. *)
let queries_counter = "engine_queries_total"
let probes_counter = "engine_probes_total"
let latency_histogram = "engine_query_latency_ns"

(* The builder domain's update metrics. *)
let inserts_counter = "engine_inserts_total"
let deletes_counter = "engine_deletes_total"
let publications_counter = "engine_publications_total"
let cells_counter = "engine_cells_written_total"
let rebuild_histogram = "engine_rebuild_ns"
let epoch_gauge = "engine_epoch"
let retired_gauge = "engine_retired_pending"
let reader_lag_gauge = "engine_reader_lag"

(* Allocation words that each worker flushes into its own shard at
   publish points, so the sums carry per-domain words without any
   cross-domain [Gc.quick_stat] staleness. *)
let minor_words_counter = "engine_gc_minor_words_total"
let promoted_words_counter = "engine_gc_promoted_words_total"
let major_words_counter = "engine_gc_major_words_total"

let ring_capacity = 512

type config = {
  space : int;
  max_probes : int;
  top_k : int;
  alert_factor : float;
}

type gentry = {
  g_minor_words : int;  (* windowed allocation words, summed over domains *)
  g_promoted_words : int;
  g_major_words : int;
  g_minor_collections : int;  (* windowed delta of the global quick_stat count *)
  g_major_collections : int;
  alloc_per_query : float;  (* minor words per query over the window *)
  g_heap_words : int;  (* major heap size at the cut *)
  cum_minor_words : int;
  cum_major_collections : int;
}

type uentry = {
  u_inserts : int;
  u_deletes : int;
  ups : float;
  u_pubs : int;
  pubs_per_s : float;
  u_cells : int;
  write_amp : float;
  rebuild_p50_ns : float;
  rebuild_p99_ns : float;
  u_epoch : int;
  u_retired : int;
  u_reader_lag : int;
  cum_updates : int;
  cum_cells : int;
}

type entry = {
  index : int;
  t_start_s : float;
  t_end_s : float;
  queries : int;
  probes : int;
  qps : float;
  probes_per_s : float;
  p50_ns : float;
  p99_ns : float;
  top_cells : Heavy.entry list;
  max_cell : int;
  max_share : float;
  hotspot_ratio : float;
  alert : bool;
  cum_queries : int;
  cum_probes : int;
  updates : uentry option;
  gc : gentry option;
}

type t = {
  metrics : Metrics.t;
  config : config;
  publishers : publisher array;
  (* Reader-side private buffers: [stable_read] copies a publisher's
     slots here under the seqlock retry loop, so merging never touches a
     buffer a writer could be mid-blit on. *)
  scratch_metrics : Metrics.frozen array;
  scratch_sketches : Heavy.t array;
  (* Everything below is shared between the ticking monitor domain and
     HTTP scrape readers; [lock] covers it. The lock is never taken on a
     worker's publish path. *)
  lock : Mutex.t;
  ring : entry option array;
  mutable next_index : int;
  mutable prev_queries : int;
  mutable prev_probes : int;
  mutable prev_latency : Metrics.Snapshot.hist option;
  mutable prev_inserts : int;
  mutable prev_deletes : int;
  mutable prev_pubs : int;
  mutable prev_cells : int;
  mutable prev_rebuild : Metrics.Snapshot.hist option;
  mutable prev_gc_minor : int;
  mutable prev_gc_promoted : int;
  mutable prev_gc_major : int;
  mutable prev_minor_colls : int;
  mutable prev_major_colls : int;
  mutable prev_t : float;
  mutable firing_run : int;
  mutable fired_total : int;
  t0_ns : int64;
}

let create metrics config ~publishers:np =
  if np < 1 then invalid_arg "Window.create: need at least one publisher";
  (* Baseline the global collection counts at construction so the first
     window reports collections *during* the run, not since process
     start. *)
  let s0 = Gc.quick_stat () in
  let mk_pub () =
    {
      epoch = Atomic.make 0;
      metrics_slot = Metrics.frozen metrics;
      sketch_slot = Heavy.create ~k:config.top_k;
    }
  in
  {
    metrics;
    config;
    publishers = Array.init np (fun _ -> mk_pub ());
    scratch_metrics = Array.init np (fun _ -> Metrics.frozen metrics);
    scratch_sketches = Array.init np (fun _ -> Heavy.create ~k:config.top_k);
    lock = Mutex.create ();
    ring = Array.make ring_capacity None;
    next_index = 0;
    prev_queries = 0;
    prev_probes = 0;
    prev_latency = None;
    prev_inserts = 0;
    prev_deletes = 0;
    prev_pubs = 0;
    prev_cells = 0;
    prev_rebuild = None;
    prev_gc_minor = 0;
    prev_gc_promoted = 0;
    prev_gc_major = 0;
    prev_minor_colls = s0.Gc.minor_collections;
    prev_major_colls = s0.Gc.major_collections;
    prev_t = 0.0;
    firing_run = 0;
    fired_total = 0;
    t0_ns = Clock.now_ns ();
  }

let publisher t i = t.publishers.(i)
let config t = t.config

let now_s t = Int64.to_float (Int64.sub (Clock.now_ns ()) t.t0_ns) /. 1e9

(* Seqlock read of one publisher into the reader's scratch buffers:
   retry while the pre-copy epoch is odd (publication in progress) or
   differs from the post-copy epoch (a publication landed mid-copy). *)
let stable_read t i =
  let pub = t.publishers.(i) in
  let rec go () =
    let e1 = Atomic.get pub.epoch in
    if e1 land 1 = 1 then begin
      Domain.cpu_relax ();
      go ()
    end
    else begin
      Metrics.frozen_copy ~src:pub.metrics_slot ~dst:t.scratch_metrics.(i);
      Heavy.copy_into pub.sketch_slot t.scratch_sketches.(i);
      if Atomic.get pub.epoch <> e1 then begin
        Domain.cpu_relax ();
        go ()
      end
    end
  in
  go ()

let read_all t =
  for i = 0 to Array.length t.publishers - 1 do
    stable_read t i
  done

(* Callers of [live_*] and [tick] race on the scratch buffers, so the
   whole read-merge sequence runs under [lock]. *)
let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let live_snapshot t =
  with_lock t @@ fun () ->
  read_all t;
  Metrics.snapshot_frozen t.metrics (Array.to_list t.scratch_metrics)

let live_cells t =
  with_lock t @@ fun () ->
  read_all t;
  Heavy.merge (Array.to_list t.scratch_sketches) ~k:t.config.top_k

(* Windowed histogram: subtract the previous cumulative bucket counts
   from the current ones. [max_value] of the delta is not recoverable
   from cumulative maxima, so the cumulative max stands in — an upper
   bound, consistent with the quantile estimator's own 2x bucket
   granularity. *)
let hist_delta (cur : Metrics.Snapshot.hist) (prev : Metrics.Snapshot.hist option) :
    Metrics.Snapshot.hist =
  match prev with
  | None -> cur
  | Some p ->
    let prev_count upper =
      let found = ref 0 in
      Array.iter (fun (u, c) -> if u = upper then found := c) p.buckets;
      !found
    in
    let buckets =
      Array.of_list
        (List.filter
           (fun (_, c) -> c > 0)
           (Array.to_list (Array.map (fun (u, c) -> (u, c - prev_count u)) cur.buckets)))
    in
    {
      cur with
      buckets;
      count = cur.count - p.count;
      sum = cur.sum - p.sum;
    }

let push t e =
  t.ring.(t.next_index mod ring_capacity) <- Some e;
  t.next_index <- t.next_index + 1

(* Windowed p50/p99 of a cumulative histogram; 0 when the window saw
   no observations. *)
let windowed_quantiles cur prev =
  match cur with
  | None -> (0.0, 0.0)
  | Some cur ->
    let d = hist_delta cur prev in
    if d.count <= 0 then (0.0, 0.0)
    else (Metrics.Snapshot.quantile d 0.5, Metrics.Snapshot.quantile d 0.99)

let tick t =
  with_lock t (fun () ->
      read_all t;
      let snap = Metrics.snapshot_frozen t.metrics (Array.to_list t.scratch_metrics) in
      let cells = Heavy.merge (Array.to_list t.scratch_sketches) ~k:t.config.top_k in
      let now = now_s t in
      let c name = Option.value ~default:0 (Metrics.Snapshot.counter_value snap name) in
      let cum_queries = c queries_counter in
      let cum_probes = c probes_counter in
      let dq = cum_queries - t.prev_queries in
      let dp = cum_probes - t.prev_probes in
      let dt = now -. t.prev_t in
      let lat_cum = Metrics.Snapshot.find_hist snap latency_histogram in
      let p50, p99 = windowed_quantiles lat_cum t.prev_latency in
      (* The alert signal is the sketch's *guaranteed* hottest tally
         (count - err): a sound lower bound on the true hottest count, so
         a firing alert is never an artifact of sketch noise. The upper
         bound (max_estimate) would read ~ total/k on a perfectly flat
         structure — a huge spurious ratio on exactly the structure that
         must stay quiet. *)
      let guar_entry = Heavy.max_guaranteed cells in
      let max_cell = match guar_entry with None -> -1 | Some e -> e.Heavy.item in
      let guar =
        match guar_entry with None -> 0 | Some e -> e.Heavy.count - e.Heavy.err
      in
      let max_share =
        if cum_probes = 0 then 0.0 else float_of_int guar /. float_of_int cum_probes
      in
      let flat =
        float_of_int cum_queries *. float_of_int t.config.max_probes
        /. float_of_int t.config.space
      in
      let hotspot_ratio = if flat > 0.0 then float_of_int guar /. flat else 0.0 in
      let alert = cum_queries > 0 && hotspot_ratio > t.config.alert_factor in
      if alert then begin
        t.firing_run <- t.firing_run + 1;
        t.fired_total <- t.fired_total + 1
      end
      else t.firing_run <- 0;
      (* The windowed update view, [None] while the run has not exercised
         the update path (a static workload leaves the builder counters
         at zero) — the absence /updates.json reports for read-only
         serves. *)
      let cum_ins = c inserts_counter in
      let cum_del = c deletes_counter in
      let cum_pubs = c publications_counter in
      let cum_cells = c cells_counter in
      let rebuild_cum = Metrics.Snapshot.find_hist snap rebuild_histogram in
      let updates =
        if cum_ins + cum_del + cum_pubs = 0 then None
        else begin
          let di = cum_ins - t.prev_inserts in
          let dd = cum_del - t.prev_deletes in
          let dpub = cum_pubs - t.prev_pubs in
          let dcells = cum_cells - t.prev_cells in
          let rebuild_p50_ns, rebuild_p99_ns = windowed_quantiles rebuild_cum t.prev_rebuild in
          let g name =
            Option.fold ~none:0 ~some:int_of_float (Metrics.Snapshot.gauge_value snap name)
          in
          Some
            {
              u_inserts = di;
              u_deletes = dd;
              ups = (if dt > 0.0 then float_of_int (di + dd) /. dt else 0.0);
              u_pubs = dpub;
              pubs_per_s = (if dt > 0.0 then float_of_int dpub /. dt else 0.0);
              u_cells = dcells;
              write_amp = (if di > 0 then float_of_int dcells /. float_of_int di else 0.0);
              rebuild_p50_ns;
              rebuild_p99_ns;
              u_epoch = g epoch_gauge;
              u_retired = g retired_gauge;
              u_reader_lag = g reader_lag_gauge;
              cum_updates = cum_ins + cum_del;
              cum_cells;
            }
        end
      in
      t.prev_inserts <- cum_ins;
      t.prev_deletes <- cum_del;
      t.prev_pubs <- cum_pubs;
      t.prev_cells <- cum_cells;
      t.prev_rebuild <- rebuild_cum;
      (* The windowed GC view: per-domain allocation words come from the
         shard counters the workers flush (precise per domain); the
         collection counts are the global [quick_stat] reading sampled
         at the cut, diffed against the previous cut. *)
      let cum_minor = c minor_words_counter in
      let cum_promoted = c promoted_words_counter in
      let cum_major = c major_words_counter in
      let st = Gc.quick_stat () in
      let gc =
        {
          g_minor_words = cum_minor - t.prev_gc_minor;
          g_promoted_words = cum_promoted - t.prev_gc_promoted;
          g_major_words = cum_major - t.prev_gc_major;
          g_minor_collections = st.Gc.minor_collections - t.prev_minor_colls;
          g_major_collections = st.Gc.major_collections - t.prev_major_colls;
          alloc_per_query =
            (if dq > 0 then float_of_int (cum_minor - t.prev_gc_minor) /. float_of_int dq
             else 0.0);
          g_heap_words = st.Gc.heap_words;
          cum_minor_words = cum_minor;
          cum_major_collections = st.Gc.major_collections;
        }
      in
      t.prev_gc_minor <- cum_minor;
      t.prev_gc_promoted <- cum_promoted;
      t.prev_gc_major <- cum_major;
      t.prev_minor_colls <- st.Gc.minor_collections;
      t.prev_major_colls <- st.Gc.major_collections;
      let e =
        {
          index = t.next_index;
          t_start_s = t.prev_t;
          t_end_s = now;
          queries = dq;
          probes = dp;
          qps = (if dt > 0.0 then float_of_int dq /. dt else 0.0);
          probes_per_s = (if dt > 0.0 then float_of_int dp /. dt else 0.0);
          p50_ns = p50;
          p99_ns = p99;
          top_cells = cells.Heavy.top;
          max_cell;
          max_share;
          hotspot_ratio;
          alert;
          cum_queries;
          cum_probes;
          updates;
          gc = Some gc;
        }
      in
      push t e;
      t.prev_queries <- cum_queries;
      t.prev_probes <- cum_probes;
      t.prev_latency <- lat_cum;
      t.prev_t <- now;
      e)

let entries t =
  with_lock t @@ fun () ->
  let first = max 0 (t.next_index - ring_capacity) in
  let out = ref [] in
  for i = t.next_index - 1 downto first do
    match t.ring.(i mod ring_capacity) with Some e -> out := e :: !out | None -> ()
  done;
  !out

let last t =
  with_lock t @@ fun () ->
  if t.next_index = 0 then None else t.ring.((t.next_index - 1) mod ring_capacity)

let total_windows t = with_lock t @@ fun () -> t.next_index

let alert_active t = with_lock t @@ fun () -> t.firing_run > 0
let alert_firing_run t = with_lock t @@ fun () -> t.firing_run
let alert_fired_total t = with_lock t @@ fun () -> t.fired_total

(* The per-window gauges the scrape endpoint appends after the counter
   and histogram series of the merged snapshot. Kept here so the same
   text is used by /metrics, the dashboard, and the tests. *)
let prometheus_gauges t =
  let e = last t in
  let ratio, alert, qps, p99 =
    match e with
    | None -> (0.0, false, 0.0, 0.0)
    | Some e -> (e.hotspot_ratio, e.alert, e.qps, e.p99_ns)
  in
  let b = Buffer.create 256 in
  let gauge name help v =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
    Buffer.add_string b (Printf.sprintf "%s %.17g\n" name v)
  in
  gauge "engine_hotspot_ratio"
    "Guaranteed sketched hottest-cell tally (count - err) over the flat bound queries*t/s"
    ratio;
  gauge "engine_hotspot_alert"
    "1 while engine_hotspot_ratio exceeds the configured alert factor" (if alert then 1.0 else 0.0);
  gauge "engine_window_qps" "Queries per second over the last completed window" qps;
  gauge "engine_window_p99_latency_ns" "Windowed p99 query latency (ns)" p99;
  (* Update-path gauges, present only when the run exercised the update
     path (mirrors the /updates.json absent-when-static semantics). *)
  (match e with
  | Some { updates = Some u; _ } ->
    gauge "engine_window_ups" "Updates per second over the last completed window" u.ups;
    gauge "engine_window_pubs_per_s" "Epoch publications per second over the last window"
      u.pubs_per_s;
    gauge "engine_window_write_amp"
      "Cells written per key inserted over the last completed window" u.write_amp;
    gauge "engine_window_rebuild_p99_ns" "Windowed p99 level-rebuild duration (ns)"
      u.rebuild_p99_ns
  | _ -> ());
  (* GC gauges, present once a window has been cut. *)
  (match e with
  | Some { gc = Some g; _ } ->
    gauge "engine_window_alloc_per_query"
      "Minor-heap words allocated per query over the last completed window"
      g.alloc_per_query;
    gauge "engine_window_minor_words"
      "Minor-heap words allocated over the last completed window (all domains)"
      (float_of_int g.g_minor_words);
    gauge "engine_window_promoted_words"
      "Words promoted to the major heap over the last completed window"
      (float_of_int g.g_promoted_words);
    gauge "engine_window_minor_collections"
      "Minor collections during the last completed window (process-wide)"
      (float_of_int g.g_minor_collections);
    gauge "engine_window_major_collections"
      "Major collection slices during the last completed window (process-wide)"
      (float_of_int g.g_major_collections);
    gauge "engine_gc_heap_words" "Major heap size in words at the last window cut"
      (float_of_int g.g_heap_words)
  | _ -> ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON shapes                                                          *)
(* ------------------------------------------------------------------ *)

(* The update and GC members are declared once: the postmortem's
   "updates" / "gc" objects add the two cumulative totals, the
   /updates.json and /scaling.json windows carry the rest flat. *)
let update_members =
  Codec.(
    obj (fun u_inserts u_deletes ups u_pubs pubs_per_s u_cells write_amp rebuild_p50_ns
             rebuild_p99_ns u_epoch u_retired u_reader_lag ->
        { u_inserts; u_deletes; ups; u_pubs; pubs_per_s; u_cells; write_amp; rebuild_p50_ns;
          rebuild_p99_ns; u_epoch; u_retired; u_reader_lag; cum_updates = 0; cum_cells = 0 })
    |> field "inserts" (fun u -> u.u_inserts) int
    |> field "deletes" (fun u -> u.u_deletes) int
    |> field "ups" (fun u -> u.ups) float
    |> field "publications" (fun u -> u.u_pubs) int
    |> field "pubs_per_s" (fun u -> u.pubs_per_s) float
    |> field "cells_written" (fun u -> u.u_cells) int
    |> field "write_amp" (fun u -> u.write_amp) float
    |> field "rebuild_p50_ns" (fun u -> u.rebuild_p50_ns) float
    |> field "rebuild_p99_ns" (fun u -> u.rebuild_p99_ns) float
    |> field "epoch" (fun u -> u.u_epoch) int
    |> field "retired_pending" (fun u -> u.u_retired) int
    |> field "reader_lag" (fun u -> u.u_reader_lag) int
    |> seal)

let gc_members =
  Codec.(
    obj (fun g_minor_words g_promoted_words g_major_words g_minor_collections
             g_major_collections alloc_per_query g_heap_words ->
        { g_minor_words; g_promoted_words; g_major_words; g_minor_collections;
          g_major_collections; alloc_per_query; g_heap_words; cum_minor_words = 0;
          cum_major_collections = 0 })
    |> field "minor_words" (fun g -> g.g_minor_words) int
    |> field "promoted_words" (fun g -> g.g_promoted_words) int
    |> field "major_words" (fun g -> g.g_major_words) int
    |> field "minor_collections" (fun g -> g.g_minor_collections) int
    |> field "major_collections" (fun g -> g.g_major_collections) int
    |> field "alloc_per_query" (fun g -> g.alloc_per_query) float
    |> field "heap_words" (fun g -> g.g_heap_words) int
    |> seal)

let codec =
  let uentry =
    Codec.(
      obj (fun u cum_updates cum_cells -> { u with cum_updates; cum_cells })
      |> inline Fun.id update_members
      |> field "cum_updates" (fun u -> u.cum_updates) int
      |> field "cum_cells" (fun u -> u.cum_cells) int
      |> seal)
  in
  let gentry =
    Codec.(
      obj (fun g cum_minor_words cum_major_collections ->
          { g with cum_minor_words; cum_major_collections })
      |> inline Fun.id gc_members
      |> field "cum_minor_words" (fun g -> g.cum_minor_words) int
      |> field "cum_major_collections" (fun g -> g.cum_major_collections) int
      |> seal)
  in
  let cell =
    Codec.(
      conv
        (fun (c : Heavy.entry) -> (c.item, c.count, c.err))
        (fun (item, count, err) -> { Heavy.item; count; err })
        (triple int int int))
  in
  Codec.(
    obj (fun updates gc index t_start_s t_end_s queries probes qps probes_per_s p50_ns p99_ns
             top_cells max_cell max_share hotspot_ratio alert cum_queries cum_probes ->
        { index; t_start_s; t_end_s; queries; probes; qps; probes_per_s; p50_ns; p99_ns;
          top_cells; max_cell; max_share; hotspot_ratio; alert; cum_queries; cum_probes;
          updates; gc })
    |> opt "updates" (fun e -> e.updates) uentry
    |> opt "gc" (fun e -> e.gc) gentry
    |> field "index" (fun e -> e.index) int
    |> field "t_start_s" (fun e -> e.t_start_s) float
    |> field "t_end_s" (fun e -> e.t_end_s) float
    |> field "queries" (fun e -> e.queries) int
    |> field "probes" (fun e -> e.probes) int
    |> field "qps" (fun e -> e.qps) float
    |> field "probes_per_s" (fun e -> e.probes_per_s) float
    |> field "p50_ns" (fun e -> e.p50_ns) float
    |> field "p99_ns" (fun e -> e.p99_ns) float
    |> field "top_cells" (fun e -> e.top_cells) (list cell)
    |> field "max_cell" (fun e -> e.max_cell) int
    |> field "max_share" (fun e -> e.max_share) float
    |> field "hotspot_ratio" (fun e -> e.hotspot_ratio) float
    |> field "alert" (fun e -> e.alert) bool
    |> field "cum_queries" (fun e -> e.cum_queries) int
    |> field "cum_probes" (fun e -> e.cum_probes) int
    |> seal)
