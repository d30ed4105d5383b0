module Rng = Lc_prim.Rng
module Table = Lc_cellprobe.Table
module Qdist = Lc_cellprobe.Qdist
module Instance = Lc_dict.Instance
module Metrics = Lc_obs.Metrics
module Span = Lc_obs.Span
module Window = Lc_obs.Window
module Heavy = Lc_obs.Heavy
module Http = Lc_obs.Http
module Journal = Lc_obs.Journal
module Epoch = Lc_dynamic.Epoch
module Opstream = Lc_workload.Opstream
module Coheat = Lc_analysis.Coheat

type cost = Free | Spinlock of { hold : int }

type result = {
  name : string;
  domains : int;
  queries : int;
  seconds : float;
  throughput : float;
  total_probes : int;
  counts : int array;
  hottest_cell : int;
  hottest_count : int;
  hottest_share : float;
  flat_bound : float;
}

let make_locks ~cost ~space =
  match cost with
  | Free -> [||]
  | Spinlock { hold } ->
    if hold < 0 then invalid_arg "Engine: Spinlock hold must be >= 0";
    Array.init space (fun _ -> Atomic.make false)

(* The probing discipline shared by every worker: count each visit in
   the worker's own [tally] (a plain store into an array no other domain
   writes), optionally serialising visits to the same cell through a
   shared per-cell test-and-set spinlock. Cell contents are only ever
   read ([Table.peek]), which is what makes the query path reentrant. A
   read-only table causes no coherence traffic, so under [Free] the only
   lines the workers share are the cells they read; the locks are the
   one shared write, and they are the contention model. This is the
   telemetry-free discipline, used by every static run that has neither
   [obs] nor a monitor. *)
let make_probe ~cost ~tally ~locks table : Lc_dict.Dict_intf.probe =
  match cost with
  | Free ->
    fun ~step:_ j ->
      tally.(j) <- tally.(j) + 1;
      Table.peek table j
  | Spinlock { hold } ->
    fun ~step:_ j ->
      let l = locks.(j) in
      while not (Atomic.compare_and_set l false true) do
        Domain.cpu_relax ()
      done;
      let v = Table.peek table j in
      for _ = 1 to hold do
        Domain.cpu_relax ()
      done;
      Atomic.set l false;
      tally.(j) <- tally.(j) + 1;
      v

(* Sampled per-probe latency: timing every probe with two gettimeofday
   calls would dominate a ~nanosecond table read, so measure 1 probe in
   [probe_sample_mask + 1]. *)
let probe_sample_mask = 63
let probe_sample_period = probe_sample_mask + 1

(* Engine metric ids on an observability handle. Registration is
   idempotent per name, so both [Monitor.create] (which must size the
   seqlock buffers after the metrics exist) and [run] itself can call
   this in either order. *)
type metric_ids = {
  m_queries : Metrics.counter;
  m_probes : Metrics.counter;
  m_latency : Metrics.histogram;
  m_probe_latency : Metrics.histogram;
  m_spin_wait : Metrics.histogram;
  m_domains : Metrics.gauge;
}

let register_metrics (o : Lc_obs.Obs.t) =
  {
    m_queries =
      Metrics.counter o.metrics ~help:"Queries served by the engine" Window.queries_counter;
    m_probes =
      Metrics.counter o.metrics ~help:"Cell probes issued by the engine" Window.probes_counter;
    m_latency =
      Metrics.histogram o.metrics ~help:"Per-query serve latency (ns)" Window.latency_histogram;
    m_probe_latency =
      Metrics.histogram o.metrics
        ~help:
          (Printf.sprintf "Sampled per-probe read latency (ns), 1 in %d probes"
             (probe_sample_mask + 1))
        "engine_probe_latency_ns";
    m_spin_wait =
      Metrics.histogram o.metrics
        ~help:"Per-acquisition spinlock wait (ns); 0 = uncontended"
        "engine_spinlock_wait_ns";
    m_domains = Metrics.gauge o.metrics ~help:"Worker domains in the last serve" "engine_domains";
  }

(* Per-domain telemetry wired into one worker's probe closure. All
   metric updates land in the worker's own shard (plain stores, no
   atomics, no allocation), so the telemetry itself cannot become the
   contended line it is trying to measure. [sketch], when supplied
   (monitored runs), receives every probed cell index — the
   worker-private Space-Saving sketch behind the live hot-cell view.
   Returns the probe and a reader of its tick count (one tick per
   probe), from which the instrumented loop adds each query's probes to
   [engine_probes_total]. The per-cell [tally] is the worker's own, as
   in [make_probe]. *)
let make_obs_probe ?sketch ~cost ~tally ~locks table (ids : metric_ids) shard =
  let record_cell =
    match sketch with None -> fun _ -> () | Some s -> fun j -> Heavy.observe s j
  in
  let probe_tick = ref 0 in
  let sampled_peek j =
    let tick = !probe_tick in
    probe_tick := tick + 1;
    if tick land probe_sample_mask = 0 then begin
      let t0 = Lc_obs.Clock.now_ns () in
      let v = Table.peek table j in
      Metrics.observe shard ids.m_probe_latency
        (Int64.to_int (Int64.sub (Lc_obs.Clock.now_ns ()) t0));
      v
    end
    else Table.peek table j
  in
  let probe : Lc_dict.Dict_intf.probe =
    match cost with
    | Free ->
      fun ~step:_ j ->
        record_cell j;
        tally.(j) <- tally.(j) + 1;
        sampled_peek j
    | Spinlock { hold } ->
      fun ~step:_ j ->
        record_cell j;
        let l = locks.(j) in
        (* Fast path: uncontended acquisition records zero wait without
           touching the clock. *)
        if Atomic.compare_and_set l false true then Metrics.observe shard ids.m_spin_wait 0
        else begin
          let t0 = Lc_obs.Clock.now_ns () in
          while not (Atomic.compare_and_set l false true) do
            Domain.cpu_relax ()
          done;
          Metrics.observe shard ids.m_spin_wait
            (Int64.to_int (Int64.sub (Lc_obs.Clock.now_ns ()) t0))
        end;
        let v = sampled_peek j in
        for _ = 1 to hold do
          Domain.cpu_relax ()
        done;
        Atomic.set l false;
        tally.(j) <- tally.(j) + 1;
        v
  in
  (probe, fun () -> !probe_tick)

(* ------------------------------------------------------------------ *)
(* Phase accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-domain wall-time attribution for instrumented serves: every
   worker's batch time is split into disjoint monotonic-clock windows —
   probe work (inside the dictionary's [mem]), tally work (per-query
   telemetry recording), seqlock window publishes, epoch pin/unpin
   (dynamic runs) — plus the residual [other] (loop overhead, the phase
   bookkeeping itself, GC pauses landing between windows) defined as
   wall minus the measured parts, so the in-wall phases sum to the
   worker's batch wall time *exactly, by construction*. [idle] is
   filled in by the orchestrator after the join: serve wall time minus
   the worker's own batch wall (spawn/join skew and scheduler time). *)
type phase = Probe | Tally | Publish | Pin | Other | Wall | Idle

(* A phase's place in the identity [parts + residual = total]. *)
type role = Part | Residual | Total | Outside

(* The phase set, declared once, in order. Everything that enumerates
   phases derives from this table: a worker's accumulator slots and its
   residual, the engine_phase_<name>_ns_total counters (registered in
   this order), the totals' sum, the identity check and the "<name>_ns"
   members of /scaling.json and the scaling artifact (in this order).
   Every constructor of [phase] appears exactly once. *)
let phase_table =
  [|
    (Probe, "probe", Part, "Worker ns inside the dictionary's mem (probe work)");
    (Tally, "tally", Part, "Worker ns recording per-query telemetry");
    (Publish, "publish", Part, "Worker ns in seqlock window publishes");
    (Pin, "pin", Part, "Reader ns in epoch pin/unpin announcements");
    (Other, "other", Residual, "Worker batch ns not attributed to a phase (residual)");
    (Wall, "wall", Total, "Worker batch wall ns (sum of the in-wall phases)");
    (Idle, "idle", Outside, "Serve wall ns minus worker batch wall, summed over workers");
  |]

let phases = Array.to_list (Array.map (fun (p, _, _, _) -> p) phase_table)

let slot_where f =
  let rec go i =
    if i = Array.length phase_table then invalid_arg "Engine: phase missing from phase_table"
    else if f phase_table.(i) then i
    else go (i + 1)
  in
  go 0

let slot p = slot_where (fun (q, _, _, _) -> q = p)
let phase_name p = let _, name, _, _ = phase_table.(slot p) in name
let phase_counter_name name = "engine_phase_" ^ name ^ "_ns_total"

(* The slots the serving code writes, resolved once. *)
let probe_slot = slot Probe
let tally_slot = slot Tally
let publish_slot = slot Publish
let pin_slot = slot Pin
let idle_slot = slot Idle
let residual_slot = slot_where (fun (_, _, r, _) -> r = Residual)
let total_slot = slot_where (fun (_, _, r, _) -> r = Total)

(* Nanoseconds per phase, one slot per [phase_table] entry. A worker's
   accumulator is one of these, plain (no atomics): each worker owns
   exactly one element of the run's array, written only by that domain
   and read by the orchestrator strictly after the join — same
   single-writer discipline as the metric shards. *)
type phase_totals = int array

let fresh_phases domains = Array.init domains (fun _ -> Array.make (Array.length phase_table) 0)
let phase_ns (t : phase_totals) p = t.(slot p)

let sum_phases ts =
  let s = Array.make (Array.length phase_table) 0 in
  List.iter (Array.iteri (fun i v -> s.(i) <- s.(i) + v)) ts;
  s

let sum_roles (t : phase_totals) roles =
  let s = ref 0 in
  Array.iteri (fun i (_, _, r, _) -> if List.mem r roles then s := !s + t.(i)) phase_table;
  !s

(* The attribution identity: the parts and the residual sum to the
   total. *)
let check_phases t =
  let parts = sum_roles t [ Part; Residual ] and total = t.(total_slot) in
  if parts = total then Ok ()
  else
    let _, total_name, _, _ = phase_table.(total_slot) in
    Error
      (Printf.sprintf "phases sum to %d ns but %s is %d ns — attribution does not reconcile"
         parts total_name total)

(* One "<name>_ns" member per phase, in declaration order, checked
   against the identity on decode. *)
let phases_codec =
  Lc_obs.Codec.(
    keyed (List.map (fun p -> phase_name p ^ "_ns") phases) int
    |> conv Array.to_list Array.of_list
    |> check check_phases)

let register_phase_metrics (o : Lc_obs.Obs.t) =
  Array.map
    (fun (_, name, _, help) -> Metrics.counter o.metrics ~help (phase_counter_name name))
    phase_table

(* Flush a worker's phase totals into its own shard, once, at batch end
   (before the final seqlock publish, so the monitor's last window sees
   them). Counters start at zero and each worker flushes exactly once,
   so the registry totals are the sums over domains; [idle] is still 0
   here and is added by the orchestrator after the join. *)
let flush_phases shard (ids : Metrics.counter array) (t : phase_totals) =
  for i = 0 to Array.length ids - 1 do
    Metrics.incr shard ids.(i) t.(i)
  done

(* Close a worker's accumulator at batch end: [wall] is the enclosing
   monotonic window, [pin] (dynamic readers) was accumulated inside the
   probe windows by [Epoch.mem_phased] and is carved out of probe here,
   and the residual is exact. *)
let close_phases (t : phase_totals) ~wall_ns ~pin_ns =
  t.(pin_slot) <- pin_ns;
  t.(probe_slot) <- t.(probe_slot) - pin_ns;
  t.(total_slot) <- wall_ns;
  t.(residual_slot) <- wall_ns - sum_roles t [ Part ]

(* ------------------------------------------------------------------ *)
(* GC telemetry                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-domain allocation accounting. [Gc.counters] reads the calling
   domain's own state (precise, no cross-domain staleness), so each
   worker samples its own cursor at batch start, at every publish point
   and at batch end, flushing the word deltas into its own metric shard.
   [Gc.counters] allocates a tuple of boxed floats — that is why it runs
   only at those boundaries, never per query. *)
type gc_cursor = {
  mutable gcur_minor : float;
  mutable gcur_promoted : float;
  mutable gcur_major : float;
}

let fresh_gc_cursors n =
  Array.init n (fun _ -> { gcur_minor = 0.0; gcur_promoted = 0.0; gcur_major = 0.0 })

type gc_metric_ids = {
  g_minor_c : Metrics.counter;
  g_promoted_c : Metrics.counter;
  g_major_c : Metrics.counter;
}

let register_gc_metrics (o : Lc_obs.Obs.t) =
  {
    g_minor_c =
      Metrics.counter o.metrics ~help:"Minor-heap words allocated by engine domains"
        Window.minor_words_counter;
    g_promoted_c =
      Metrics.counter o.metrics ~help:"Words promoted to the major heap by engine domains"
        Window.promoted_words_counter;
    g_major_c =
      Metrics.counter o.metrics ~help:"Words allocated directly on the major heap"
        Window.major_words_counter;
  }

(* Set the cursor without flushing: the baseline at batch start, so the
   deltas cover only this worker's batch. *)
let gc_baseline (cur : gc_cursor) =
  let minor, promoted, major = Gc.counters () in
  cur.gcur_minor <- minor;
  cur.gcur_promoted <- promoted;
  cur.gcur_major <- major

let sample_gc shard (g : gc_metric_ids) (cur : gc_cursor) =
  let minor, promoted, major = Gc.counters () in
  Metrics.incr shard g.g_minor_c (int_of_float (minor -. cur.gcur_minor));
  Metrics.incr shard g.g_promoted_c (int_of_float (promoted -. cur.gcur_promoted));
  Metrics.incr shard g.g_major_c (int_of_float (major -. cur.gcur_major));
  cur.gcur_minor <- minor;
  cur.gcur_promoted <- promoted;
  cur.gcur_major <- major

(* Update-path metric ids (builder-domain shard only). Registered next
   to [register_metrics] so the Window's frozen buffers include them;
   idempotent per name like everything in the registry. *)
type update_metric_ids = {
  u_inserts_c : Metrics.counter;
  u_deletes_c : Metrics.counter;
  u_pubs_c : Metrics.counter;
  u_reclaimed_c : Metrics.counter;
  u_cells_c : Metrics.counter;
  u_rebuild_h : Metrics.histogram;
  u_publish_h : Metrics.histogram;
  u_batch_h : Metrics.histogram;
  u_epoch_g : Metrics.gauge;
  u_retired_g : Metrics.gauge;
  u_lag_g : Metrics.gauge;
}

(* Read back by /updates.json; the window does not diff it. *)
let reclaimed_counter = "engine_reclaimed_total"

let register_update_metrics (o : Lc_obs.Obs.t) =
  {
    u_inserts_c =
      Metrics.counter o.metrics ~help:"Inserts applied by the builder domain"
        Window.inserts_counter;
    u_deletes_c =
      Metrics.counter o.metrics ~help:"Deletes applied by the builder domain"
        Window.deletes_counter;
    u_pubs_c =
      Metrics.counter o.metrics ~help:"Epoch snapshots published" Window.publications_counter;
    u_reclaimed_c =
      Metrics.counter o.metrics ~help:"Retired levels reclaimed" reclaimed_counter;
    u_cells_c =
      Metrics.counter o.metrics ~help:"Cells written by level rebuilds (exact)"
        Window.cells_counter;
    u_rebuild_h =
      Metrics.histogram o.metrics ~help:"Per-level-build duration (ns)" Window.rebuild_histogram;
    u_publish_h =
      Metrics.histogram o.metrics ~help:"Per-publication latency (ns)" "engine_publish_ns";
    u_batch_h =
      Metrics.histogram o.metrics ~help:"Updates made visible per publication"
        "engine_publish_batch";
    u_epoch_g = Metrics.gauge o.metrics ~help:"Currently published epoch" Window.epoch_gauge;
    u_retired_g =
      Metrics.gauge o.metrics ~help:"Retired levels awaiting reclamation" Window.retired_gauge;
    u_lag_g =
      Metrics.gauge o.metrics
        ~help:"Published epoch minus the slowest pinned reader's epoch"
        Window.reader_lag_gauge;
  }

(* Shared by [count_histogram] (exact, post-run) and the live
   /cells.json route (mid-run, from the sum of the workers' tallies;
   exact once they have joined). *)
let histogram_of_counts counts =
  let max_count = Array.fold_left max 0 counts in
  let bucket_of c =
    (* 0 -> bucket 0; otherwise 1 + floor(log2 c). *)
    if c = 0 then 0
    else begin
      let b = ref 0 in
      let v = ref c in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      !b
    end
  in
  let nbuckets = bucket_of max_count + 1 in
  let cells = Array.make nbuckets 0 in
  Array.iter (fun c -> cells.(bucket_of c) <- cells.(bucket_of c) + 1) counts;
  let upper b = if b = 0 then 0 else (1 lsl b) - 1 in
  List.filter (fun (_, n) -> n > 0) (List.init nbuckets (fun b -> (upper b, cells.(b))))

(* ------------------------------------------------------------------ *)
(* Live monitoring                                                      *)
(* ------------------------------------------------------------------ *)

module Monitor = struct
  type t = {
    obs : Lc_obs.Obs.t;
    window : Window.t;
    sketches : Heavy.t array;
    orch_sketch : Heavy.t;
    builder_sketch : Heavy.t;
    domains : int;
    interval_s : float;
    publish_period : int;
    on_window : (Window.entry -> unit) option;
    journal : Journal.t option;
    on_alert : (Window.entry -> unit) option;
    (* Alert edge detector for the journal / on_alert hook; owned by the
       monitor domain (ticks are serialised). *)
    mutable alert_was_firing : bool;
    (* The static run's per-worker tallies, summed when scraped. *)
    mutable live_counts : int array array option;
    (* The replication controller, when this run is adaptive: attached
       before serving starts, driven by [tick] (the monitor domain is
       the controller domain), scraped by /control.json. *)
    mutable controller : Lc_control.Controller.t option;
  }

  let create_for ?(interval_s = 0.25) ?(publish_period = 256) ?(top_k = 16)
      ?(alert_factor = 8.0) ?on_window ?journal ?on_alert ~domains ~space ~max_probes () =
    if domains < 1 then invalid_arg "Monitor.create: domains must be >= 1";
    if interval_s <= 0.0 then invalid_arg "Monitor.create: interval_s must be > 0";
    if publish_period < 1 then invalid_arg "Monitor.create: publish_period must be >= 1";
    if space < 1 then invalid_arg "Monitor.create: space must be >= 1";
    if max_probes < 1 then invalid_arg "Monitor.create: max_probes must be >= 1";
    (match journal with
    | Some j when Journal.writers j < domains + 2 ->
      invalid_arg
        (Printf.sprintf
           "Monitor.create: journal has %d writer rings, need domains + 2 = %d \
            (orchestrator, workers, monitor; dynamic runs want one more for the \
            builder)"
           (Journal.writers j) (domains + 2))
    | _ -> ());
    (* Its own handle: a monitor is single-use. *)
    let obs = Lc_obs.Obs.create () in
    (* Register before sizing the seqlock buffers: Window.frozen copies
       only metrics that exist at creation time. The update metrics are
       registered unconditionally — a static run simply never touches
       them, which is exactly the absent-when-static signal the windowed
       update view keys on. *)
    let _ids = register_metrics obs in
    let _uids = register_update_metrics obs in
    let _pids = register_phase_metrics obs in
    let _gids = register_gc_metrics obs in
    {
      obs;
      (* Publisher layout: 0 = orchestrator, 1..domains = workers,
         domains + 1 = the builder domain of a dynamic run (left zeroed
         by static serves). *)
      window =
        Window.create obs.metrics
          { Window.space; max_probes; top_k; alert_factor }
          ~publishers:(domains + 2);
      sketches = Array.init domains (fun _ -> Heavy.create ~k:top_k);
      orch_sketch = Heavy.create ~k:top_k;
      builder_sketch = Heavy.create ~k:top_k;
      domains;
      interval_s;
      publish_period;
      on_window;
      journal;
      on_alert;
      alert_was_firing = false;
      live_counts = None;
      controller = None;
    }

  let create ?interval_s ?publish_period ?top_k ?alert_factor ?on_window ?journal ?on_alert
      ~domains inst =
    let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
    create_for ?interval_s ?publish_period ?top_k ?alert_factor ?on_window ?journal ?on_alert
      ~domains ~space:D.space ~max_probes:D.max_probes ()

  let obs t = t.obs
  let window t = t.window
  let interval_s t = t.interval_s
  let journal t = t.journal
  let controller t = t.controller

  (* Attach the replication controller before serving starts. The
     monitor domain becomes the controller domain: every [tick] feeds
     the cut window into [Controller.observe], whose decisions journal
     on ring [domains + 3] (when the journal was sized for it) and fire
     the actuator the serving path installed. *)
  let attach_controller t ctl = t.controller <- Some ctl

  (* The controller's journal ring index for a monitored run over
     [domains] workers — next to the builder's [domains + 2]. *)
  let controller_writer ~domains = domains + 3

  (* One monitor heartbeat: cut a window, journal it (plus the alert
     edge and a sketch snapshot), fire the hooks. Runs on the monitor
     domain during the serve and once more on the orchestrator after the
     workers join — never concurrently, so the edge detector needs no
     synchronisation. Hook exceptions are swallowed: a broken dashboard
     or dump must not take the serve down. *)
  let tick t =
    let e = Window.tick t.window in
    (match t.journal with
    | None -> ()
    | Some j ->
      let w = t.domains + 1 in
      Journal.record j ~writer:w
        (Journal.Window_cut
           {
             index = e.Window.index;
             queries = e.Window.queries;
             qps = e.Window.qps;
             p50_ns = e.Window.p50_ns;
             p99_ns = e.Window.p99_ns;
             hotspot_ratio = e.Window.hotspot_ratio;
             alert = e.Window.alert;
           });
      Journal.record j ~writer:w
        (Journal.Sketch_snapshot
           {
             top =
               List.map
                 (fun (c : Heavy.entry) -> (c.item, c.count, c.err))
                 e.Window.top_cells;
           });
      let factor = (Window.config t.window).Window.alert_factor in
      if e.Window.alert && not t.alert_was_firing then
        Journal.record j ~writer:w
          (Journal.Alert_raised
             { index = e.Window.index; ratio = e.Window.hotspot_ratio; factor })
      else if (not e.Window.alert) && t.alert_was_firing then
        Journal.record j ~writer:w
          (Journal.Alert_cleared
             { index = e.Window.index; ratio = e.Window.hotspot_ratio; factor }));
    (if e.Window.alert && not t.alert_was_firing then
       match t.on_alert with None -> () | Some f -> ( try f e with _ -> ()));
    t.alert_was_firing <- e.Window.alert;
    (* Sense → decide → act: the controller sees exactly the entry (and
       merged top-k) this tick journaled, so a journaled decision's
       evidence reconciles field-for-field with the window's own sketch
       snapshot. Runs before [on_window] so the dashboard hook reads
       post-decision controller state. *)
    (match t.controller with
    | None -> ()
    | Some ctl ->
      ignore
        (Lc_control.Controller.observe ctl ~window:e.Window.index
           ~queries:e.Window.queries e.Window.top_cells
          : Lc_control.Controller.decision option));
    (match t.on_window with None -> () | Some f -> ( try f e with _ -> ()));
    e

  (* engine_control_* gauges: appended exposition lines like
     [Window.prometheus_gauges] — the controller's scalars are
     monitor-domain-owned and racy-read tolerant, so the scrape domain
     reads them directly instead of round-tripping through a metric
     shard that would need its own publisher. *)
  let control_gauges t =
    match t.controller with
    | None -> ""
    | Some ctl ->
      let module C = Lc_control.Controller in
      let b = Buffer.create 512 in
      let gauge name help v =
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n%s %s\n" name help name name v)
      in
      gauge "engine_control_applied_boost"
        "Replication boost the builder last applied"
        (string_of_int (C.applied_boost ctl));
      gauge "engine_control_target_boost" "Replication boost the controller wants"
        (string_of_int (C.target_boost ctl));
      gauge "engine_control_score" "Hysteresis contention score"
        (string_of_int (C.score ctl));
      gauge "engine_control_cooldown_windows" "Cooldown windows remaining"
        (string_of_int (C.cooldown ctl));
      gauge "engine_control_decisions_total" "Actuation decisions so far"
        (string_of_int (C.decisions_total ctl));
      gauge "engine_control_windowed_ratio"
        "Windowed contention ratio at the last controller observation"
        (Printf.sprintf "%.6f" (C.last_ratio ctl));
      Buffer.contents b

  let metrics_body t =
    Lc_obs.Export.prometheus (Window.live_snapshot t.window)
    ^ Window.prometheus_gauges t.window
    ^ control_gauges t

  module Codec = Lc_obs.Codec

  (* The co-heat object shared by /cells.json and /scaling.json:
     per-cell tallies bucketed into cache-line groups (see
     {!Lc_analysis.Coheat}), or null when the run keeps no live per-cell
     counters (dynamic workloads, or before a serve starts). The
     per-line heats are not served, and [uniform_bound] follows from
     [line_cells]: both are dropped on decode. *)
  let coheat_codec =
    Codec.(
      nullable
        (obj (fun line_cells lines total ratio _uniform_bound hottest_line hottest_line_heat
                  hottest_line_share ->
             { Coheat.line_cells; lines; total; ratio; heats = [||]; hottest_line;
               hottest_line_heat; hottest_line_share })
        |> field "line_cells" (fun c -> c.Coheat.line_cells) int
        |> field "lines" (fun c -> c.Coheat.lines) int
        |> field "total_probes" (fun c -> c.Coheat.total) int
        |> field "ratio" (fun c -> c.Coheat.ratio) float
        |> field "uniform_bound" Coheat.uniform_bound float
        |> field "hottest_line" (fun c -> c.Coheat.hottest_line) int
        |> field "hottest_line_heat" (fun c -> c.Coheat.hottest_line_heat) int
        |> field "hottest_line_share" (fun c -> c.Coheat.hottest_line_share) float
        |> seal
        |> check (fun c ->
               if c.Coheat.ratio < 0.0 || c.Coheat.ratio >= 1.0 then Error "ratio out of [0, 1)"
               else Ok ())))

  (* Racy reads of the workers' plain ints: no value tears, but a scrape
     may miss stores still in flight. Once the workers have joined and
     [merge_tallies] has run, the sum equals the result's counts. *)
  let live_count_values t =
    match t.live_counts with
    | None -> None
    | Some tallies ->
      let sum = Array.copy tallies.(0) in
      for w = 1 to Array.length tallies - 1 do
        Array.iteri (fun j c -> sum.(j) <- sum.(j) + c) tallies.(w)
      done;
      Some sum

  (* /cells.json: the merged hot-cell sketch and the exact per-cell
     count histogram, schema-versioned ("lowcon-cells" v1). [coheat] is
     null and [count_histogram] empty together, for a run that keeps no
     live per-cell counters. *)
  type cells = {
    sketch : Heavy.merged;
    coheat : Coheat.t option;
    count_histogram : (int * int) list;  (* (bucket upper bound, cells) *)
  }

  let check_cells c =
    match
      List.find_opt (fun (e : Heavy.entry) -> e.err < 0 || e.err > e.count) c.sketch.Heavy.top
    with
    | Some e -> Error (Printf.sprintf "cell %d: err %d outside [0, count %d]" e.item e.err e.count)
    | None -> (
      match (c.coheat, c.count_histogram) with
      | None, _ :: _ -> Error "\"count_histogram\" must be empty when coheat is null"
      | Some _, [] -> Error "\"count_histogram\" must not be empty when coheat is an object"
      | _ -> Ok ())

  let cells_document =
    Codec.(
      document ~name:"lowcon-cells" ~version:1
        ~summary:(fun c ->
          Printf.sprintf "%d probe(s) sketched, %d top cell(s), %s"
            c.sketch.Heavy.total_observed (List.length c.sketch.Heavy.top)
            (if c.coheat = None then "no exact counts" else "exact counts"))
        (obj (fun total_observed error_bound coheat top count_histogram ->
             { sketch = { Heavy.top; total_observed; error_bound }; coheat; count_histogram })
        |> field "total_observed" (fun c -> c.sketch.Heavy.total_observed) int
        |> field "error_bound" (fun c -> c.sketch.Heavy.error_bound) int
        |> field "coheat" (fun c -> c.coheat) coheat_codec
        |> field "top" (fun c -> c.sketch.Heavy.top)
             (list
                (obj (fun item count err -> { Heavy.item; count; err })
                |> field "cell" (fun (e : Heavy.entry) -> e.item) int
                |> field "count" (fun (e : Heavy.entry) -> e.count) int
                |> field "err" (fun (e : Heavy.entry) -> e.err) int
                |> seal))
        |> field "count_histogram" (fun c -> c.count_histogram) (list (pair int int))
        |> seal
        |> check check_cells))

  let cells_body t =
    let counts = live_count_values t in
    Codec.to_string cells_document
      {
        sketch = Window.live_cells t.window;
        coheat = Option.map Coheat.of_counts counts;
        count_histogram = Option.fold ~none:[] ~some:histogram_of_counts counts;
      }

  (* /windows.json: the window ring in the postmortem's window shape,
     plus the alert state, schema-versioned ("lowcon-windows" v1). *)
  type windows = { ring : Window.entry list; alert_active : bool; alert_fired_total : int }

  (* The ring holds consecutive windows, and every firing window it
     holds was counted when it fired. *)
  let check_windows w =
    let rec consecutive = function
      | (a : Window.entry) :: (b :: _ as rest) ->
        if b.Window.index <> a.Window.index + 1 then
          Error
            (Printf.sprintf "window %d follows window %d: indexes not consecutive"
               b.Window.index a.Window.index)
        else consecutive rest
      | _ -> Ok ()
    in
    let firing = List.length (List.filter (fun (e : Window.entry) -> e.Window.alert) w.ring) in
    if firing > w.alert_fired_total then
      Error
        (Printf.sprintf "alert_fired_total is %d but %d listed window(s) fired"
           w.alert_fired_total firing)
    else consecutive w.ring

  let windows_document =
    Codec.(
      document ~name:"lowcon-windows" ~version:1
        ~summary:(fun w ->
          Printf.sprintf "%d window(s), %d fired, alert %s" (List.length w.ring)
            w.alert_fired_total
            (if w.alert_active then "active" else "quiet"))
        (obj (fun ring alert_active alert_fired_total -> { ring; alert_active; alert_fired_total })
        |> field "windows" (fun w -> w.ring) (list Window.codec)
        |> field "alert_active" (fun w -> w.alert_active) bool
        |> field "alert_fired_total" (fun w -> w.alert_fired_total) int
        |> seal
        |> check check_windows))

  let windows_body t =
    Codec.to_string windows_document
      {
        ring = Window.entries t.window;
        alert_active = Window.alert_active t.window;
        alert_fired_total = Window.alert_fired_total t.window;
      }

  (* /updates.json: the update-path counterpart of /windows.json,
     schema-versioned ("lowcon-updates" v1) so `lowcon validate` can
     check a saved scrape. [cumulative] is null and [windows] empty for
     a run that never exercised the update path (static workloads). *)
  let updates_schema_name = "lowcon-updates"
  let updates_schema_version = 1

  type update_totals = {
    inserts : int;
    deletes : int;
    publications : int;
    reclaimed : int;
    cells_written : int;
    write_amp : float;
    epoch : int;
    retired_pending : int;
    reader_lag : int;
  }

  type updates = {
    seen : bool;
    cumulative : update_totals option;
    uwindows : (int * float * float * Window.uentry) list;
  }

  let updates_document =
    Codec.(
      document ~name:updates_schema_name ~version:updates_schema_version
        ~summary:(fun u ->
          Printf.sprintf "%s, %d update window(s)"
            (if u.seen then "updates seen" else "no updates (static run)")
            (List.length u.uwindows))
        (obj (fun seen cumulative uwindows -> { seen; cumulative; uwindows })
        |> field "updates_seen" (fun u -> u.seen) bool
        |> field "cumulative" (fun u -> u.cumulative)
             (nullable
                (obj (fun inserts deletes publications reclaimed cells_written write_amp epoch
                          retired_pending reader_lag ->
                     { inserts; deletes; publications; reclaimed; cells_written; write_amp; epoch;
                       retired_pending; reader_lag })
                |> field "inserts" (fun c -> c.inserts) int
                |> field "deletes" (fun c -> c.deletes) int
                |> field "publications" (fun c -> c.publications) int
                |> field "reclaimed" (fun c -> c.reclaimed) int
                |> field "cells_written" (fun c -> c.cells_written) int
                |> field "write_amp" (fun c -> c.write_amp) float
                |> field "epoch" (fun c -> c.epoch) int
                |> field "retired_pending" (fun c -> c.retired_pending) int
                |> field "reader_lag" (fun c -> c.reader_lag) int
                |> seal))
        |> field "windows" (fun u -> u.uwindows)
             (list
                (obj (fun i t0 t1 u -> (i, t0, t1, u))
                |> field "index" (fun (i, _, _, _) -> i) int
                |> field "t_start_s" (fun (_, t0, _, _) -> t0) float
                |> field "t_end_s" (fun (_, _, t1, _) -> t1) float
                |> inline (fun (_, _, _, u) -> u) Window.update_members
                |> seal))
        |> seal
        |> check (fun u ->
               match (u.seen, u.cumulative) with
               | false, Some _ -> Error "\"cumulative\" must be null when updates_seen is false"
               | true, None -> Error "\"cumulative\" must be an object when updates_seen is true"
               | _ -> Ok ())))

  let updates_body t =
    let snap = Window.live_snapshot t.window in
    let c name = Option.value ~default:0 (Metrics.Snapshot.counter_value snap name) in
    let g name = Option.fold ~none:0 ~some:int_of_float (Metrics.Snapshot.gauge_value snap name) in
    let inserts = c Window.inserts_counter in
    let deletes = c Window.deletes_counter in
    let publications = c Window.publications_counter in
    let cells_written = c Window.cells_counter in
    let seen = inserts + deletes + publications > 0 in
    let totals =
      {
        inserts;
        deletes;
        publications;
        reclaimed = c reclaimed_counter;
        cells_written;
        write_amp =
          (if inserts > 0 then float_of_int cells_written /. float_of_int inserts else 0.0);
        epoch = g Window.epoch_gauge;
        retired_pending = g Window.retired_gauge;
        reader_lag = g Window.reader_lag_gauge;
      }
    in
    let window (e : Window.entry) =
      Option.map
        (fun u -> (e.Window.index, e.Window.t_start_s, e.Window.t_end_s, u))
        e.Window.updates
    in
    Codec.to_string updates_document
      {
        seen;
        cumulative = (if seen then Some totals else None);
        uwindows = List.filter_map window (Window.entries t.window);
      }

  (* /scaling.json: the scaling observatory's live view — cumulative
     per-phase time attribution, GC/allocation counters, the windowed GC
     entries and the cache-line co-heat diagnostic, schema-versioned
     ("lowcon-scaling-live" v1) so `lowcon validate` can check a saved
     scrape. Distinct from the offline "lowcon-scaling" artifact the
     `lowcon scale` sweep writes: this is one run's telemetry, that is a
     fitted domain sweep. *)
  let scaling_schema_name = "lowcon-scaling-live"
  let scaling_schema_version = 1

  type scaling = {
    sc_domains : int;
    phases : phase_totals;
    gc : int * int * int * (int * float * float * int * Window.gentry) list;
        (* minor, promoted and major words, then the GC windows *)
    coheat : Coheat.t option;
  }

  let scaling_document =
    Codec.(
      document ~name:scaling_schema_name ~version:scaling_schema_version
        ~summary:(fun s ->
          let _, _, _, windows = s.gc in
          Printf.sprintf "%d domain(s), %d GC window(s)" s.sc_domains (List.length windows))
        (obj (fun sc_domains phases gc coheat -> { sc_domains; phases; gc; coheat })
        |> field "domains" (fun s -> s.sc_domains) int
        |> field "phases" (fun s -> s.phases) phases_codec
        |> field "gc" (fun s -> s.gc)
             (obj (fun minor promoted major windows -> (minor, promoted, major, windows))
             |> field "minor_words" (fun (m, _, _, _) -> m) int
             |> field "promoted_words" (fun (_, p, _, _) -> p) int
             |> field "major_words" (fun (_, _, m, _) -> m) int
             |> field "windows" (fun (_, _, _, ws) -> ws)
                  (list
                     (obj (fun i t0 t1 q g -> (i, t0, t1, q, g))
                     |> field "index" (fun (i, _, _, _, _) -> i) int
                     |> field "t_start_s" (fun (_, t0, _, _, _) -> t0) float
                     |> field "t_end_s" (fun (_, _, t1, _, _) -> t1) float
                     |> field "queries" (fun (_, _, _, q, _) -> q) int
                     |> inline (fun (_, _, _, _, g) -> g) Window.gc_members
                     |> seal))
             |> seal)
        |> field "coheat" (fun s -> s.coheat) coheat_codec
        |> seal))

  let scaling_body t =
    let snap = Window.live_snapshot t.window in
    let c name = Option.value ~default:0 (Metrics.Snapshot.counter_value snap name) in
    Codec.to_string scaling_document
      {
        sc_domains = t.domains;
        phases = Array.map (fun (_, name, _, _) -> c (phase_counter_name name)) phase_table;
        gc =
          ( c Window.minor_words_counter,
            c Window.promoted_words_counter,
            c Window.major_words_counter,
            List.filter_map
              (fun (e : Window.entry) ->
                Option.map
                  (fun g ->
                    (e.Window.index, e.Window.t_start_s, e.Window.t_end_s, e.Window.queries, g))
                  e.Window.gc)
              (Window.entries t.window) );
        coheat = Option.map Coheat.of_counts (live_count_values t);
      }

  (* /control.json: the controller's sense→decide→act state, schema-
     versioned ("lowcon-control" v1) so `lowcon validate` can check a
     saved scrape. [attached] is false (and everything else absent) for
     a run without a controller; otherwise the decision list carries
     exactly the records the controller journaled, so a scrape, the
     flight recorder and a postmortem replay reconcile one to one. *)
  let control_schema_name = "lowcon-control"
  let control_schema_version = 1

  type control = {
    boost : int * int * int;  (* base, target, applied *)
    policy : Lc_control.Policy.config;
    state : int * int * int * float;  (* score, cooldown, windows seen, last ratio *)
    decisions_total : int;
    decisions : Lc_control.Controller.decision list;
  }

  (* Beyond shape, the decision log's own invariants: ids are 1..N with
     N = decisions_total, every boost is a power of two inside the
     policy's [min, max] band, and consecutive decisions chain from the
     base boost (each old_boost is the previous new_boost) — the same
     reconciliation the postmortem replay performs against the
     journal. *)
  let check_control c =
    let module C = Lc_control.Controller in
    let base, _, _ = c.boost in
    let lo = c.policy.Lc_control.Policy.min_boost and hi = c.policy.Lc_control.Policy.max_boost in
    let pow2 b = b > 0 && b land (b - 1) = 0 in
    let rec chain id boost = function
      | [] -> Ok ()
      | (d : C.decision) :: rest ->
        if d.C.d_id <> id then
          Error (Printf.sprintf "decision ids not consecutive: expected %d, got %d" id d.C.d_id)
        else if not (pow2 d.C.d_old_boost && pow2 d.C.d_new_boost && d.C.d_new_boost >= lo
                     && d.C.d_new_boost <= hi)
        then
          Error
            (Printf.sprintf "decision %d: boost %d -> %d outside the power-of-two [%d, %d] band"
               id d.C.d_old_boost d.C.d_new_boost lo hi)
        else if d.C.d_old_boost <> boost then
          Error
            (Printf.sprintf "decision %d: old_boost %d does not chain from %d" id
               d.C.d_old_boost boost)
        else chain (id + 1) d.C.d_new_boost rest
    in
    let listed = List.length c.decisions in
    if listed <> c.decisions_total then
      Error
        (Printf.sprintf "decisions_total is %d but %d decision(s) listed" c.decisions_total listed)
    else chain 1 base c.decisions

  let control_document =
    Codec.(
      document ~name:control_schema_name ~version:control_schema_version
        ~summary:(function
          | Some c -> Printf.sprintf "%d decision(s), chain reconciled" c.decisions_total
          | None -> "no controller attached")
        (flagged "attached"
           (obj (fun boost policy state decisions_total decisions ->
                { boost; policy; state; decisions_total; decisions })
           |> field "boost" (fun c -> c.boost)
                (obj (fun base target applied -> (base, target, applied))
                |> field "base" (fun (b, _, _) -> b) int
                |> field "target" (fun (_, t, _) -> t) int
                |> field "applied" (fun (_, _, a) -> a) int
                |> seal)
           |> field "policy" (fun c -> c.policy) Lc_control.Policy.codec
           |> field "state" (fun c -> c.state)
                (obj (fun score cooldown seen last -> (score, cooldown, seen, last))
                |> field "score" (fun (s, _, _, _) -> s) int
                |> field "cooldown" (fun (_, c, _, _) -> c) int
                |> field "windows_seen" (fun (_, _, w, _) -> w) int
                |> field "last_ratio" (fun (_, _, _, r) -> r) float
                |> seal)
           |> field "decisions_total" (fun c -> c.decisions_total) int
           |> field "decisions" (fun c -> c.decisions) (list Lc_control.Controller.decision_codec)
           |> seal
           |> check check_control)))

  let control_json t =
    let module C = Lc_control.Controller in
    Codec.to_string control_document
      (Option.map
         (fun ctl ->
           {
             boost = (C.base_boost ctl, C.target_boost ctl, C.applied_boost ctl);
             policy = C.policy_config ctl;
             state = (C.score ctl, C.cooldown ctl, C.windows_seen ctl, C.last_ratio ctl);
             decisions_total = C.decisions_total ctl;
             decisions = C.decisions ctl;
           })
         t.controller)

  let routes t : Http.route list =
    [
      ("/metrics", fun () -> Http.text (metrics_body t));
      ( "/snapshot.json",
        fun () -> Http.json (Lc_obs.Export.json_snapshot (Window.live_snapshot t.window)) );
      ("/cells.json", fun () -> Http.json (cells_body t));
      ("/windows.json", fun () -> Http.json (windows_body t));
      ("/updates.json", fun () -> Http.json (updates_body t));
      ("/scaling.json", fun () -> Http.json (scaling_body t));
      ("/control.json", fun () -> Http.json (control_json t));
      ("/healthz", fun () -> Http.text "ok\n");
    ]
end

(* ------------------------------------------------------------------ *)
(* The unified entry point                                              *)
(* ------------------------------------------------------------------ *)

module Config = struct
  type nonrec t = {
    domains : int;
    seed : int;
    cost : cost;
    obs : Lc_obs.Obs.t option;
    monitor : Monitor.t option;
  }

  let make ?(cost = Free) ?obs ?monitor ~domains ~seed () =
    { domains; seed; cost; obs; monitor }
end

type workload =
  | Static of {
      inst : Instance.t;
      qdist : Qdist.t;
      queries_per_domain : int;
    }
  | Dynamic of {
      epoch : Epoch.t;
      ops : Opstream.op array;
      publish_every : int;
    }

type update_stats = {
  inserts : int;
  deletes : int;
  query_hits : int;
  publications : int;
  reclaimed : int;
  retired_pending : int;
  keys_rebuilt : int;
  purges : int;
  final_live : int;
  final_epoch : int;
  cells_written : int;
  rebuilds : int;
  rebuild_ns : int;
  publish_ns : int;
  write_amp : float;
  builder_ns : int;
  reclaim_lag_max : int;
}

type outcome = {
  result : result;
  windows : Window.entry list;
  cells : Heavy.merged option;
  alert_windows : int;
  updates : update_stats option;
  phases : phase_totals array option;
}

(* ------------------------------------------------------------------ *)
(* Serving                                                              *)
(* ------------------------------------------------------------------ *)

(* Sleep [total] seconds in short slices so a stop flag set at worker
   join wakes the monitor domain promptly. *)
let interruptible_sleep total stop =
  let slice = 0.02 in
  let remaining = ref total in
  while !remaining > 0.0 && not (Atomic.get stop) do
    let d = Float.min slice !remaining in
    Unix.sleepf d;
    remaining := !remaining -. d
  done

(* A dynamic run's builder-side telemetry: its shard, timeline and
   update metric ids, a recorder for its journal ring [domains + 2]
   (silent unless the journal was sized for it, so journals with
   [domains + 2] rings keep working), and the publication of its window
   slot [domains + 1] (a no-op without a monitor). *)
type builder_obs = {
  b_shard : Metrics.shard;
  b_timeline : Span.timeline;
  b_ids : update_metric_ids;
  b_record : Journal.kind -> unit;
  b_publish : unit -> unit;
}

(* An instrumented run's plumbing, created on the orchestrating domain
   before any worker spawns so the workers never touch the registry
   mutexes: shard and timeline 0 are the orchestrator's, 1..domains the
   workers', domains + 1 the builder's. The phase records and GC cursors
   (slot [domains] is the builder's cursor) are plain single-writer
   stores, like the shards. *)
type telemetry = {
  ids : metric_ids;
  main_shard : Metrics.shard;
  main_tl : Span.timeline;
  workers : (Metrics.shard * Span.timeline) array;
  builder : builder_obs option;
  pids : Metrics.counter array;
  gids : gc_metric_ids;
  phase_recs : phase_totals array;
  gcursors : gc_cursor array;
}

(* Registration order fixes the order of the Prometheus and JSON
   exports: the engine metrics, then a dynamic run's update metrics,
   then the phase and GC ids. *)
let instrument ?monitor (o : Lc_obs.Obs.t) ~domains ~dynamic =
  let ids = register_metrics o in
  let main_shard = Lc_obs.Obs.shard o ~domain:0 in
  Metrics.set_gauge main_shard ids.m_domains (float_of_int domains);
  let main_tl = Lc_obs.Obs.timeline o ~tid:0 in
  let workers =
    Array.init domains (fun w ->
        let shard = Lc_obs.Obs.shard o ~domain:(w + 1) in
        (shard, Lc_obs.Obs.timeline o ~tid:(w + 1)))
  in
  let builder =
    if not dynamic then None
    else begin
      let b_shard = Lc_obs.Obs.shard o ~domain:(domains + 1) in
      let b_timeline = Lc_obs.Obs.timeline o ~tid:(domains + 1) in
      let b_ids = register_update_metrics o in
      let b_record =
        match Option.bind monitor (fun (m : Monitor.t) -> m.Monitor.journal) with
        | Some j when Journal.writers j >= domains + 3 ->
          fun ev -> Journal.record j ~writer:(domains + 2) ev
        | _ -> fun _ -> ()
      in
      let b_publish =
        match monitor with
        | None -> fun () -> ()
        | Some m ->
          let pub = Window.publisher m.Monitor.window (domains + 1) in
          fun () -> Window.publish pub b_shard m.Monitor.builder_sketch
      in
      Some { b_shard; b_timeline; b_ids; b_record; b_publish }
    end
  in
  let pids = register_phase_metrics o in
  let gids = register_gc_metrics o in
  let phase_recs = fresh_phases domains and gcursors = fresh_gc_cursors (domains + 1) in
  (* Publish the orchestrator's shard (the domains gauge) once now; it
     is republished after the join with the idle-phase total. *)
  (match monitor with
  | Some m ->
    Window.publish (Window.publisher m.Monitor.window 0) main_shard m.Monitor.orch_sketch
  | None -> ());
  { ids; main_shard; main_tl; workers; builder; pids; gids; phase_recs; gcursors }

(* An orchestrator stage: a span on timeline 0 when instrumented, and
   begin/end marks on journal ring 0, which give a postmortem its coarse
   timeline even when the alert fires before any window. *)
let main_span ?tel ?monitor name f =
  let body () = match tel with None -> f () | Some t -> Span.with_span t.main_tl name f in
  match Option.bind monitor (fun (m : Monitor.t) -> m.Monitor.journal) with
  | None -> body ()
  | Some j ->
    Journal.record j ~writer:0 (Journal.Stage { name; mark = `Begin });
    Fun.protect
      ~finally:(fun () -> Journal.record j ~writer:0 (Journal.Stage { name; mark = `End }))
      body

(* What an instrumented worker serves from: its query function and
   readers of its cumulative probe count and epoch pin/unpin ns — the
   static obs probe's tick count and 0, or a dynamic reader's own
   tallies. *)
type source = { query : int -> bool; probes : unit -> int; pin_ns : unit -> int }

(* A monitored worker's window publication through seqlock slot w + 1,
   made every [period] queries and once at batch end, and journaled on
   the worker's own ring: one event per period, so the recorder costs
   the hot path nothing measurable. *)
type publisher = { period : int; publish : int -> unit }

let worker_publisher ?monitor (t : telemetry) w =
  Option.map
    (fun (m : Monitor.t) ->
      let pub = Window.publisher m.Monitor.window (w + 1) in
      let shard, _ = t.workers.(w) and sketch = m.Monitor.sketches.(w) in
      let journal_publish =
        match m.Monitor.journal with
        | None -> fun _ -> ()
        | Some j -> fun q -> Journal.record j ~writer:(w + 1) (Journal.Publish { queries = q })
      in
      {
        period = m.Monitor.publish_period;
        publish =
          (fun served ->
            Window.publish pub shard sketch;
            journal_publish served);
      })
    monitor

(* The instrumented worker loop, shared by static and dynamic runs:
   per-query latency, the query counter and the query's probe count,
   the phase split, GC samples and, given a publisher, the window
   publications. Returns the number of queries answered [true]. *)
let instrumented_loop (t : telemetry) w ?publisher (src : source) batch =
  let shard, timeline = t.workers.(w) and ph = t.phase_recs.(w) and gcur = t.gcursors.(w) in
  Span.with_span timeline "serve-batch" @@ fun () ->
  let w0 = Lc_obs.Clock.now_ns () in
  gc_baseline gcur;
  let hits = ref 0 and served = ref 0 and since_publish = ref 0 in
  Array.iter
    (fun x ->
      let p0 = src.probes () in
      let t0 = Lc_obs.Clock.now_ns () in
      if src.query x then incr hits;
      let t1 = Lc_obs.Clock.now_ns () in
      Metrics.observe shard t.ids.m_latency (Int64.to_int (Int64.sub t1 t0));
      Metrics.incr shard t.ids.m_queries 1;
      Metrics.incr shard t.ids.m_probes (src.probes () - p0);
      let t2 = Lc_obs.Clock.now_ns () in
      (* The phase stores below land after [t2]: the accounting
         overhead charges itself to the [other] residual, never to the
         phases it measures. *)
      ph.(probe_slot) <- ph.(probe_slot) + Int64.to_int (Int64.sub t1 t0);
      ph.(tally_slot) <- ph.(tally_slot) + Int64.to_int (Int64.sub t2 t1);
      match publisher with
      | None -> ()
      | Some p ->
        incr served;
        incr since_publish;
        if !since_publish >= p.period then begin
          since_publish := 0;
          let pb0 = Lc_obs.Clock.now_ns () in
          sample_gc shard t.gids gcur;
          p.publish !served;
          ph.(publish_slot) <-
            ph.(publish_slot) + Int64.to_int (Int64.sub (Lc_obs.Clock.now_ns ()) pb0)
        end)
    batch;
  sample_gc shard t.gids gcur;
  (* A dynamic reader's pin/unpin ns accrued inside the probe windows;
     [close_phases] carves them out so probe means probe. *)
  close_phases ph
    ~wall_ns:(Int64.to_int (Int64.sub (Lc_obs.Clock.now_ns ()) w0))
    ~pin_ns:(src.pin_ns ());
  flush_phases shard t.pids ph;
  (* Final publication: the monitor's last tick must see the complete
     batch (and the flushed phase totals) so windowed totals reconcile
     exactly. Deliberately after the wall cut — it cannot be charged to
     a phase it publishes. *)
  Option.iter (fun p -> p.publish !served) publisher;
  !hits

(* One reclamation pass reported on the builder shard: the freed count
   (journaled with the epoch it ran at) and the retired-pending and
   reader-lag gauges. The builder runs it after every publication, the
   orchestrator once more after the join. *)
let reclaim_reported (b : builder_obs) epoch ~epoch_no =
  let freed = Epoch.try_reclaim epoch in
  let pending = Epoch.retired_pending epoch in
  if freed > 0 then begin
    Metrics.incr b.b_shard b.b_ids.u_reclaimed_c freed;
    let lag = Epoch.reclaim_lag_max epoch in
    b.b_record (Journal.Reclaim { epoch = epoch_no; freed; lag; pending })
  end;
  Metrics.set_gauge b.b_shard b.b_ids.u_retired_g (float_of_int pending);
  Metrics.set_gauge b.b_shard b.b_ids.u_lag_g (float_of_int (Epoch.reader_lag epoch))

(* An instrumented run's builder: the update loop [apply_updates] given
   the telemetry publication step, then, for adaptive runs, the
   keep-alive loop. *)
let instrumented_builder (b : builder_obs) ~gids ~gcur ~adaptive ~readers_done epoch ~inserts
    ~deletes apply_updates =
  gc_baseline gcur;
  (* Every level build lands in the builder's own shard (plain stores)
     the moment it happens — the windowed view and the flight recorder
     see rebuild cost mid-run, not at join. *)
  Lc_dynamic.Dynamic.set_build_hook (Epoch.inner epoch) (fun bi ->
      Metrics.incr b.b_shard b.b_ids.u_cells_c bi.Lc_dynamic.Dynamic.bi_cells;
      Metrics.observe b.b_shard b.b_ids.u_rebuild_h bi.Lc_dynamic.Dynamic.bi_ns;
      b.b_record
        (Journal.Level_merge
           {
             level = bi.Lc_dynamic.Dynamic.bi_index;
             keys = bi.Lc_dynamic.Dynamic.bi_keys;
             replicas = bi.Lc_dynamic.Dynamic.bi_replicas;
             cells = bi.Lc_dynamic.Dynamic.bi_cells;
             dur_ns = bi.Lc_dynamic.Dynamic.bi_ns;
           }));
  (* The insert and delete counters take the loop's deltas at each
     publication, the only point where the builder shard becomes
     visible, so the update loop is the uninstrumented one. *)
  let counted_inserts = ref 0 and counted_deletes = ref 0 in
  let publish_now () =
    (* Act: a pending controller request re-replicates the affected
       levels right here on the builder domain (through the accounted
       build path — the Level_merge events and rebuild counters above
       fire for each), and the publish just below makes them visible.
       Readers are never blocked: they keep serving the previous
       snapshot until the one Atomic.set. *)
    let applied = Epoch.apply_boost_request epoch in
    let pi = Epoch.publish_stats epoch in
    Option.iter
      (fun (ba : Epoch.boost_applied) ->
        b.b_record
          (Journal.Control_applied
             {
               id = ba.Epoch.ba_id;
               epoch = pi.Epoch.pi_epoch;
               boost = ba.Epoch.ba_boost;
               levels = ba.Epoch.ba_levels;
               cells = ba.Epoch.ba_cells;
               dur_ns = ba.Epoch.ba_ns;
             }))
      applied;
    Metrics.incr b.b_shard b.b_ids.u_inserts_c (!inserts - !counted_inserts);
    Metrics.incr b.b_shard b.b_ids.u_deletes_c (!deletes - !counted_deletes);
    counted_inserts := !inserts;
    counted_deletes := !deletes;
    Metrics.incr b.b_shard b.b_ids.u_pubs_c 1;
    Metrics.observe b.b_shard b.b_ids.u_publish_h pi.Epoch.pi_dur_ns;
    Metrics.observe b.b_shard b.b_ids.u_batch_h pi.Epoch.pi_batch;
    b.b_record
      (Journal.Epoch_publish
         {
           epoch = pi.Epoch.pi_epoch;
           batch = pi.Epoch.pi_batch;
           levels = pi.Epoch.pi_levels;
           fresh_cells = pi.Epoch.pi_fresh_cells;
           dur_ns = pi.Epoch.pi_dur_ns;
         });
    reclaim_reported b epoch ~epoch_no:pi.Epoch.pi_epoch;
    Metrics.set_gauge b.b_shard b.b_ids.u_epoch_g (float_of_int pi.Epoch.pi_epoch);
    (* Builder allocation (level rebuilds dominate it) flushes at every
       publication so the windowed GC view sees write-side churn
       mid-run. *)
    sample_gc b.b_shard gids gcur;
    b.b_publish ()
  in
  Span.with_span b.b_timeline "apply-updates" (fun () -> apply_updates publish_now);
  (* Adaptive runs: the update stream may drain long before the readers
     do, and without a builder no one could apply the controller's
     requests — so keep the builder alive until the orchestrator joins
     the readers, publishing whenever a boost request lands and dozing
     (never spinning) otherwise. The final check drains a request that
     raced the readers_done flag, so the post-run /control.json shows
     applied = target. *)
  if adaptive then
    Span.with_span b.b_timeline "boost-keepalive" (fun () ->
        while not (Atomic.get readers_done) do
          if Epoch.boost_pending epoch then publish_now () else Unix.sleepf 0.001
        done;
        if Epoch.boost_pending epoch then publish_now ());
  Lc_dynamic.Dynamic.clear_build_hook (Epoch.inner epoch)

(* Spawn the workers (and a dynamic run's [builder], handed the flag
   raised once the workers have joined), join everything, then do the
   post-join bookkeeping: idle phases, the orchestrator's
   republication, [settle], and the final authoritative window. The
   monitor domain ticks windows on its interval while workers are hot;
   it is stopped (and joined) outside the timed section so the
   throughput columns stay comparable with unmonitored runs. Returns
   the serve wall-clock seconds. *)
let serve_domains ?monitor ?tel ?builder ?(settle = ignore) ~domains worker =
  let monitor_stop = Atomic.make false in
  let monitor_domain =
    Option.map
      (fun m ->
        Domain.spawn (fun () ->
            while not (Atomic.get monitor_stop) do
              interruptible_sleep m.Monitor.interval_s monitor_stop;
              if not (Atomic.get monitor_stop) then ignore (Monitor.tick m : Window.entry)
            done))
      monitor
  in
  let readers_done = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let serve_t0_ns = Lc_obs.Clock.now_ns () in
  let seconds =
    main_span ?tel ?monitor "serve" @@ fun () ->
    let builder_d = Option.map (fun b -> Domain.spawn (fun () -> b readers_done)) builder in
    let spawned = Array.init domains (fun w -> Domain.spawn (worker w)) in
    Array.iter Domain.join spawned;
    Atomic.set readers_done true;
    Option.iter Domain.join builder_d;
    Unix.gettimeofday () -. t0
  in
  let serve_wall_ns = Int64.to_int (Int64.sub (Lc_obs.Clock.now_ns ()) serve_t0_ns) in
  (* Idle/join accounting, filled in by the orchestrator now that the
     workers' phase records are quiescent: what the serve section spent
     spawning, joining and waiting around each worker's own batch. The
     orchestrator's shard is republished so the final tick's merged
     snapshot carries the idle totals. *)
  (match tel with
  | None -> ()
  | Some t ->
    Array.iter
      (fun ph ->
        ph.(idle_slot) <- max 0 (serve_wall_ns - ph.(total_slot));
        Metrics.incr t.main_shard t.pids.(idle_slot) ph.(idle_slot))
      t.phase_recs;
    Option.iter
      (fun m ->
        Window.publish (Window.publisher m.Monitor.window 0) t.main_shard m.Monitor.orch_sketch)
      monitor);
  settle ();
  (match monitor_domain with
  | None -> ()
  | Some d ->
    Atomic.set monitor_stop true;
    Domain.join d;
    ignore (Monitor.tick (Option.get monitor) : Window.entry));
  seconds

(* Sum a static run's per-worker tallies into [tallies.(0)], which
   becomes the result's counts, without allocating another array. Each
   source cell is zeroed as its count moves, so once the merge returns
   the monitor's live sum over all the tallies equals [tallies.(0)];
   without the zeroing it would count workers 1.. twice. *)
let merge_tallies tallies =
  let into = tallies.(0) in
  for w = 1 to Array.length tallies - 1 do
    let t = tallies.(w) in
    for j = 0 to Array.length t - 1 do
      let c = t.(j) in
      if c <> 0 then begin
        t.(j) <- 0;
        into.(j) <- into.(j) + c
      end
    done
  done;
  into

(* The result and outcome of a run. [counts], [max_probes] and [space]
   describe the structure the run ended on (a dynamic run's final
   snapshot, which may have no cells). *)
let assemble ?monitor ?tel ?updates ~name ~domains ~queries ~seconds ~total_probes ~max_probes
    ~space counts =
  let hottest_cell = ref 0 in
  Array.iteri (fun j c -> if c > counts.(!hottest_cell) then hottest_cell := j) counts;
  let hottest_count = if Array.length counts = 0 then 0 else counts.(!hottest_cell) in
  let result =
    {
      name;
      domains;
      queries;
      seconds;
      throughput = (if seconds > 0.0 then float_of_int queries /. seconds else Float.infinity);
      total_probes;
      counts;
      hottest_cell = !hottest_cell;
      hottest_count;
      hottest_share =
        (if total_probes = 0 then 0.0
         else float_of_int hottest_count /. float_of_int total_probes);
      flat_bound =
        (if space = 0 then 0.0
         else float_of_int queries *. float_of_int max_probes /. float_of_int space);
    }
  in
  let windows, cells, alert_windows =
    match monitor with
    | None -> ([], None, 0)
    | Some m ->
      let w = m.Monitor.window in
      (Window.entries w, Some (Window.live_cells w), Window.alert_fired_total w)
  in
  let phases = Option.map (fun t -> t.phase_recs) tel in
  { result; windows; cells; alert_windows; updates; phases }

let run (cfg : Config.t) workload =
  let { Config.domains; seed; cost; obs; monitor } = cfg in
  if domains < 1 then invalid_arg "Engine.run: domains must be >= 1";
  (match monitor with
  | Some m when m.Monitor.domains <> domains ->
    invalid_arg
      (Printf.sprintf "Engine.run: monitor was created for %d domains, run got %d"
         m.Monitor.domains domains)
  | _ -> ());
  (match workload with
  | Static { queries_per_domain; _ } ->
    if queries_per_domain < 1 then
      invalid_arg "Engine.run: queries_per_domain must be >= 1"
  | Dynamic { publish_every; _ } -> (
    if publish_every < 1 then invalid_arg "Engine.run: publish_every must be >= 1";
    (* The spinlock cost model is a per-cell lock array sized at build
       time — meaningless when the cell set changes per publication. *)
    match cost with
    | Free -> ()
    | Spinlock _ ->
      invalid_arg "Engine.run: the Spinlock cost model applies to static serving only"));
  (* A monitor carries its own observability handle. *)
  let obs = match monitor with Some m -> Some m.Monitor.obs | None -> obs in
  let dynamic = match workload with Static _ -> false | Dynamic _ -> true in
  let tel = Option.map (fun o -> instrument ?monitor o ~domains ~dynamic) obs in
  match workload with
  | Static { inst; qdist; queries_per_domain } ->
    let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
    (* One flat tally per worker, allocated before the spawn: a worker
       counts with plain stores into its own array and allocates
       nothing to do so. *)
    let tallies = Array.init domains (fun _ -> Array.make D.space 0) in
    (match monitor with Some m -> m.Monitor.live_counts <- Some tallies | None -> ());
    let locks = make_locks ~cost ~space:D.space in
    (* Pre-sample each domain's query batch outside the timed section so
       throughput measures probing, not distribution sampling. *)
    let batches =
      main_span ?tel ?monitor "sample-batches" @@ fun () ->
      Array.init domains (fun w ->
          let rng = Rng.create (seed + (7919 * (w + 1))) in
          Array.init queries_per_domain (fun _ -> Qdist.sample qdist rng))
    in
    let worker w () =
      let rng = Rng.create (seed lxor (104729 * (w + 1))) in
      let tally = tallies.(w) in
      match tel with
      | None ->
        let probe = make_probe ~cost ~tally ~locks D.table in
        Array.iter (fun x -> ignore (D.mem ~probe rng x : bool)) batches.(w)
      | Some t ->
        let sketch = Option.map (fun m -> m.Monitor.sketches.(w)) monitor in
        let probe, probes =
          make_obs_probe ?sketch ~cost ~tally ~locks D.table t.ids (fst t.workers.(w))
        in
        let src = { query = (fun x -> D.mem ~probe rng x); probes; pin_ns = (fun () -> 0) } in
        ignore
          (instrumented_loop t w ?publisher:(worker_publisher ?monitor t w) src batches.(w) : int)
    in
    let seconds = serve_domains ?monitor ?tel ~domains worker in
    main_span ?tel ?monitor "merge" @@ fun () ->
    let counts = merge_tallies tallies in
    assemble ?monitor ?tel ~name:D.name ~domains ~queries:(domains * queries_per_domain) ~seconds
      ~total_probes:(Array.fold_left ( + ) 0 counts) ~max_probes:D.max_probes ~space:D.space counts
  | Dynamic { epoch; ops; publish_every } ->
    (* [domains] reader domains drain pre-split query batches through
       epoch-pinned lock-free probes while one builder domain applies
       the update subsequence in stream order, publishing a fresh
       snapshot every [publish_every] updates and reclaiming retired
       levels as readers leave.

       Adaptive runs: wire the controller's act step to the epoch's
       boost request channel before anything spawns. The monitor domain
       decides (Monitor.tick -> Controller.observe -> request_boost, one
       Atomic.set); the builder domain applies at its next publication. *)
    let controller = Option.bind monitor (fun m -> m.Monitor.controller) in
    (match controller with
    | None -> ()
    | Some ctl ->
      Lc_control.Controller.set_actuator ctl (fun ~id ~boost ->
          Epoch.request_boost epoch ~id ~boost);
      Lc_control.Controller.set_applied_reader ctl (fun () -> Epoch.applied_boost epoch));
    let updates, query_batches = Opstream.split ops ~domains in
    let total_queries = Array.fold_left (fun acc b -> acc + Array.length b) 0 query_batches in
    (* Readers are registered on the orchestrator so worker domains never
       race the slot allocator; each gets a private rng. *)
    let readers =
      Array.init domains (fun w -> Epoch.reader epoch (Rng.create (seed lxor (104729 * (w + 1)))))
    in
    let hits = Array.make domains 0 in
    (* Builder-side totals, written by the builder domain and read by the
       orchestrator strictly after the join. [b_ns] is the builder's wall
       time over the whole update stream — the denominator-free numerator
       of ns/update, measured whether or not telemetry is attached. *)
    let b_inserts = ref 0 and b_deletes = ref 0 in
    let b_ns = ref 0 in
    (* Run-scoped baselines: a preloaded epoch arrives with build work
       already on its lifetime totals (Dynamic counters never reset),
       while the engine_* metrics only ever see this run — subtracting
       the baseline keeps [update_stats] reconciling exactly with the
       counters and the windowed sums. *)
    let cells0 = Lc_dynamic.Dynamic.cells_written (Epoch.inner epoch) in
    let rebuilds0 = Lc_dynamic.Dynamic.rebuilds (Epoch.inner epoch) in
    let rebuild_ns0 = Lc_dynamic.Dynamic.rebuild_ns (Epoch.inner epoch) in
    let publish_ns0 = Epoch.publish_ns_total epoch in
    (* The update loop: [publish] every [publish_every] updates and once
       at stream end, so readers finish against the complete table. *)
    let apply_updates publish =
      let applied = ref 0 in
      Array.iter
        (fun op ->
          (match op with
          | Opstream.Insert x ->
            Epoch.insert epoch x;
            incr b_inserts
          | Opstream.Delete x ->
            Epoch.delete epoch x;
            incr b_deletes
          | Opstream.Query _ -> assert false (* split put queries elsewhere *));
          incr applied;
          if !applied mod publish_every = 0 then publish ())
        updates;
      publish ()
    in
    let builder readers_done =
      let t_start = Lc_obs.Clock.now_ns () in
      (match tel with
      | Some { builder = Some b; gids; gcursors; _ } ->
        instrumented_builder b ~gids ~gcur:gcursors.(domains)
          ~adaptive:(Option.is_some controller) ~readers_done epoch ~inserts:b_inserts
          ~deletes:b_deletes apply_updates
      | _ ->
        apply_updates (fun () ->
            Epoch.publish epoch;
            ignore (Epoch.try_reclaim epoch : int)));
      b_ns := Int64.to_int (Int64.sub (Lc_obs.Clock.now_ns ()) t_start)
    in
    let worker w () =
      let r = readers.(w) in
      let batch = query_batches.(w) in
      match tel with
      | None ->
        let h = ref 0 in
        Array.iter (fun x -> if Epoch.mem epoch r x then incr h) batch;
        hits.(w) <- !h
      | Some t ->
        (* The observe hook feeds every probed cell (snapshot-global id)
           into the worker-private sketch, like the static obs probe. *)
        Option.iter
          (fun m ->
            let sketch = m.Monitor.sketches.(w) in
            Epoch.set_observe r (fun cell -> Heavy.observe sketch cell))
          monitor;
        let src =
          {
            query = Epoch.mem_phased epoch r;
            probes = (fun () -> Epoch.reader_probes r);
            pin_ns = (fun () -> Epoch.reader_pin_ns r);
          }
        in
        hits.(w) <- instrumented_loop t w ?publisher:(worker_publisher ?monitor t w) src batch;
        Epoch.clear_observe r
    in
    (* Every reader is quiescent after the join, so the orchestrator
       takes over the builder role and reclaims the rest of the retired
       list — before the final tick, so the last window and
       /updates.json carry the settled gauges. *)
    let settle () =
      match tel with
      | Some { builder = Some b; _ } ->
        reclaim_reported b epoch ~epoch_no:(Epoch.epoch (Epoch.current epoch));
        b.b_publish ()
      | _ -> ignore (Epoch.try_reclaim epoch : int)
    in
    let seconds = serve_domains ?monitor ?tel ~builder ~settle ~domains worker in
    main_span ?tel ?monitor "merge" @@ fun () ->
    let snap = Epoch.current epoch in
    let inner = Epoch.inner epoch in
    let cells_written = Lc_dynamic.Dynamic.cells_written inner - cells0 in
    let updates =
      {
        inserts = !b_inserts;
        deletes = !b_deletes;
        query_hits = Array.fold_left ( + ) 0 hits;
        publications = Epoch.publications epoch;
        reclaimed = Epoch.reclaimed epoch;
        retired_pending = Epoch.retired_pending epoch;
        keys_rebuilt = Lc_dynamic.Dynamic.keys_rebuilt inner;
        purges = Lc_dynamic.Dynamic.purges inner;
        final_live = Epoch.live snap;
        final_epoch = Epoch.epoch snap;
        cells_written;
        rebuilds = Lc_dynamic.Dynamic.rebuilds inner - rebuilds0;
        rebuild_ns = Lc_dynamic.Dynamic.rebuild_ns inner - rebuild_ns0;
        publish_ns = Epoch.publish_ns_total epoch - publish_ns0;
        write_amp =
          (if !b_inserts > 0 then float_of_int cells_written /. float_of_int !b_inserts
           else 0.0);
        builder_ns = !b_ns;
        reclaim_lag_max = Epoch.reclaim_lag_max epoch;
      }
    in
    assemble ?monitor ?tel ~updates ~name:"lc-dyn" ~domains ~queries:total_queries ~seconds
      ~total_probes:(Array.fold_left (fun acc r -> acc + Epoch.reader_probes r) 0 readers)
      ~max_probes:(Epoch.max_probes snap) ~space:(Epoch.space snap) (Epoch.snapshot_counts snap)

let hotspot_ratio r = float_of_int r.hottest_count /. r.flat_bound

let answer_all ?(domains = 2) ~seed inst ~queries =
  if domains < 1 then invalid_arg "Engine.answer_all: domains must be >= 1";
  let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
  let probe : Lc_dict.Dict_intf.probe = fun ~step:_ j -> Table.peek D.table j in
  let n = Array.length queries in
  let out = Array.make n false in
  (* Round-robin index partition: workers write disjoint slots of [out],
     so the only shared mutable state is the (read-only) table cells. *)
  let worker w () =
    let rng = Rng.create (seed + (7919 * w)) in
    let i = ref w in
    while !i < n do
      out.(!i) <- D.mem ~probe rng queries.(!i);
      i := !i + domains
    done
  in
  let spawned = Array.init domains (fun w -> Domain.spawn (worker w)) in
  Array.iter Domain.join spawned;
  out

let count_histogram r = histogram_of_counts r.counts

let top_cells r ~k =
  let indexed = Array.mapi (fun j c -> (j, c)) r.counts in
  Array.sort (fun (_, a) (_, b) -> compare b a) indexed;
  Array.to_list (Array.sub indexed 0 (min k (Array.length indexed)))
