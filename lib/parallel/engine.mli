(** The multicore query-serving engine — Theorem 3's contention bound as
    measured hardware traffic.

    The sequential harness ({!Lc_cellprobe.Contention},
    {!Lc_cellprobe.Concurrency}) {e counts} or {e simulates} the probes
    that concurrent queries would aim at each cell. This engine runs
    them: [m] OCaml 5 domains issue membership queries against one
    shared table through the reentrant {!Lc_dict.Dict_intf.S} core.
    Every probe adds one to the probing domain's own flat per-cell
    tally, a plain store no other domain writes; the tallies are summed
    after the join. An optional per-cell spinlock, shared by all
    domains, makes same-cell visits genuinely serialise — the cost model
    a shared-memory multiprocessor imposes on a contended line. What
    comes out is wall-clock throughput plus the exact per-cell probe
    tally, so "contention [Theta(sqrt n)] vs [O(1/n)]" (paper Section
    1.3) becomes a measured gap rather than a counted one.

    All randomness is per-domain ([Rng.t] is not shared), table cells
    are written only at construction time, and the probing mode never
    touches the table's sequential counters, so runs are data-race
    free. The machine's core count only affects the wall-clock columns;
    probe counts are exact regardless. *)

type cost =
  | Free
      (** Probes are plain reads of the shared table plus a store into
          the domain's private tally. A read-only table causes no
          coherence traffic, so what concurrent probes of one cell cost
          here is read sharing alone: the paper's contention, as
          cache-coherent hardware prices it. *)
  | Spinlock of { hold : int }
      (** Each probe acquires a per-cell test-and-set spinlock and holds
          it for [hold] extra [Domain.cpu_relax] iterations: concurrent
          visits to one cell serialise, so a structure with a
          contention-[Theta(1)] cell (binary search's root, unreplicated
          FKS's parameter cell) pays wall-clock time proportional to its
          hot-spot traffic. *)

type result = {
  name : string;  (** Structure name, from the core. *)
  domains : int;  (** Worker domains, the paper's [m]. *)
  queries : int;  (** Total queries served ([domains * queries_per_domain]). *)
  seconds : float;  (** Wall-clock for the serving phase only. *)
  throughput : float;  (** Queries per second. *)
  total_probes : int;  (** Sum of all per-cell counters. *)
  counts : int array;
      (** Per-cell probe tallies, length [space]: the sum of the
          domains' private tallies, exact for a seed. *)
  hottest_cell : int;  (** Index of the most-probed cell. *)
  hottest_count : int;  (** Its tally — the observed hot spot. *)
  hottest_share : float;  (** [hottest_count / total_probes]. *)
  flat_bound : float;
      (** [queries * max_probes / space] — the per-cell tally a
          perfectly flat (contention [1/s]) structure would show.
          {!hotspot_ratio} divides by this. *)
}

(** {1 Phase accounting}

    The scaling observatory's time-attribution layer: when a run is
    instrumented ([obs] or [monitor] present), every worker splits its
    batch wall time into disjoint monotonic-clock phases, accumulated
    in a plain array the worker alone writes (same single-writer
    discipline as the metric shards) and read by the orchestrator
    strictly after the join. The invariant tests assert is exact by
    construction:

    [probe + tally + publish + pin + other = wall].

    The phase set is declared once, as {!phase} and the ordered
    {!phases}: each entry carries its name, its help text and its role
    in that identity (a measured part, the residual, the total, or
    outside it). Everything that enumerates phases derives from the
    declaration — the accumulator and its residual, the
    [engine_phase_<name>_ns_total] counters (flushed once per worker,
    so [/metrics] and [/scaling.json] carry the same numbers), the sum
    {!sum_phases}, the identity check {!check_phases} and the one
    codec {!phases_codec} that both [/scaling.json] and the
    ["lowcon-scaling"] artifact ({!Lc_perf.Scaling}) use. The per-cell
    tally increments (plain stores into the domain's own array) happen
    {e inside} the dictionary's [mem], so they are attributed to probe
    work — the probe phase is "time the hot path spent where contention
    lives". *)

type phase =
  | Probe
      (** Inside the dictionary's [mem] (cell reads, per-cell tallies,
          spin waits, sampled probe latency, sketch updates); for
          dynamic runs, minus the pin phase. *)
  | Tally
      (** Per-query telemetry recording: the latency observe, the query
          counter and the query's probe count, added to
          [engine_probes_total] once per query from the probe tally's
          delta (no per-probe counter work). *)
  | Publish
      (** Periodic seqlock window publishes + GC sampling + journal
          appends (the final batch-end publish is not charged). *)
  | Pin
      (** Epoch pin/unpin announcements ({!Lc_dynamic.Epoch.mem_phased});
          0 for static runs. *)
  | Other
      (** The exact residual: [wall] minus the measured parts (loop
          overhead, the accounting itself, GC pauses between windows). *)
  | Wall  (** The worker's batch wall time: the identity's total. *)
  | Idle
      (** Serve wall minus the worker's batch wall (spawn/join skew),
          filled in after the join; outside the identity. *)

val phases : phase list
(** Every phase once, in declaration order — the order of the
    counters' registration and of the ["<name>_ns"] JSON members. *)

val phase_name : phase -> string
(** ["probe"], ["tally"], ...: the counter is
    [engine_phase_<name>_ns_total] and the JSON member ["<name>_ns"]. *)

type phase_totals
(** Nanoseconds per phase: one worker's accumulator, or a sum of them. *)

val phase_ns : phase_totals -> phase -> int

val sum_phases : phase_totals list -> phase_totals
(** Slot-wise sum; all zero for [[]]. The identity is linear, so a sum
    of reconciling totals reconciles. *)

val check_phases : phase_totals -> (unit, string) Stdlib.result
(** The identity: the parts and the residual sum to [wall], or an
    [Error] saying by how much they miss. *)

val phases_codec : phase_totals Lc_obs.Codec.t
(** An object with one ["<name>_ns"] integer member per phase, in
    {!phases} order; decoding also applies {!check_phases}. *)

(** Live monitoring for a serving run: a monitor domain that cuts
    {!Lc_obs.Window} snapshots on an interval while the workers are hot,
    per-worker {!Lc_obs.Heavy} hot-cell sketches published through the
    window seqlocks, and ready-made {!Lc_obs.Http} routes for scraping
    the whole thing mid-run. *)
module Monitor : sig
  type t

  val create :
    ?interval_s:float ->
    ?publish_period:int ->
    ?top_k:int ->
    ?alert_factor:float ->
    ?on_window:(Lc_obs.Window.entry -> unit) ->
    ?journal:Lc_obs.Journal.t ->
    ?on_alert:(Lc_obs.Window.entry -> unit) ->
    domains:int ->
    Lc_dict.Instance.t ->
    t
  (** A monitor for one monitored {!run} over [inst] with [domains]
      workers. Registers the engine metrics on a fresh telemetry handle
      (read it back with {!obs}) under {!Lc_obs.Window}'s metric names,
      sizes one window publisher per domain plus the orchestrator, and
      retains the last {!Lc_obs.Window.ring_capacity} windows, oldest
      evicted.

      - [interval_s] (default 0.25): monitor tick period — one window
        per tick.
      - [publish_period] (default 256): queries between a worker's
        seqlock publications.
      - [top_k] (default 16): hot-cell sketch capacity per worker.
      - [alert_factor] (default 8.0): fire when the windowed
        [engine_hotspot_ratio] exceeds this multiple of the flat
        [1/s]-per-query bound — Theorem 3 keeps the ratio [O(1)], so a
        modest factor separates the low-contention dictionary from any
        [Theta(sqrt n)] regression.
      - [on_window]: called on the monitor domain with each completed
        window (the [lowcon monitor] dashboard hook); exceptions are
        swallowed.
      - [journal]: a flight-recorder ring ({!Lc_obs.Journal}) the run
        writes engine events into — window cuts, top-k sketch snapshots,
        alert raise/clear transitions, worker publications and
        orchestrator build/serve stage marks. Must have been created
        with at least [domains + 2] writers (ring 0 is the orchestrator,
        rings 1..[domains] the workers, ring [domains + 1] the monitor
        domain). A {!Dynamic} run additionally records builder events
        (epoch publish, level merge, reclaim) on ring [domains + 2]
        when the journal was sized with [domains + 3] writers — with
        fewer, the builder is simply silent and everything else works
        as before. An attached controller ({!attach_controller})
        likewise records its decisions on ring [domains + 3] when the
        journal has [domains + 4] writers, and is silent with fewer.
        Recording is lock-free and allocation-light, so a
        journal can stay attached to production runs and be dumped only
        when something fires.
      - [on_alert]: called once per quiet->firing alert {e edge} (not
        per firing window) on whichever domain cut the window — the
        dump-on-alert postmortem hook. Exceptions are swallowed.

      A monitor is single-use: its sketches and window deltas are
      cumulative, so reusing one across runs conflates their streams
      (create a fresh monitor per run, like a fresh [obs] handle). *)

  val create_for :
    ?interval_s:float ->
    ?publish_period:int ->
    ?top_k:int ->
    ?alert_factor:float ->
    ?on_window:(Lc_obs.Window.entry -> unit) ->
    ?journal:Lc_obs.Journal.t ->
    ?on_alert:(Lc_obs.Window.entry -> unit) ->
    domains:int ->
    space:int ->
    max_probes:int ->
    unit ->
    t
  (** {!create} generalised to an explicit [space] / [max_probes]
      budget instead of an {!Lc_dict.Instance.t} — what the dynamic
      serving mode needs, where there is no static instance and the
      budget comes from a published {!Lc_dynamic.Epoch} snapshot
      (typically the preloaded one; the windowed flat bound then tracks
      that budget even as later publications change the level set).
      All other parameters and the single-use rule are as for
      {!create}. *)

  val obs : t -> Lc_obs.Obs.t
  val window : t -> Lc_obs.Window.t
  val interval_s : t -> float

  val journal : t -> Lc_obs.Journal.t option
  (** The attached flight recorder, if any. *)

  val controller : t -> Lc_control.Controller.t option
  (** The attached replication controller, if any. *)

  val attach_controller : t -> Lc_control.Controller.t -> unit
  (** Attach a {!Lc_control.Controller.t} before serving starts. The
      monitor domain becomes the controller's observing domain: every
      {!tick} feeds the cut window's sketch entries into
      {!Lc_control.Controller.observe}, so decisions happen at window
      granularity with no extra domain. A {!Dynamic} run wires the
      controller's actuator to {!Lc_dynamic.Epoch.request_boost}
      automatically; decisions are journaled on ring
      [{!controller_writer} ~domains] when the monitor's journal is
      sized for it. *)

  val controller_writer : domains:int -> int
  (** [domains + 3] — the journal ring an attached controller records
      its decisions on (after orchestrator [0], workers [1..domains],
      monitor [domains + 1] and builder [domains + 2]); size the
      journal with at least [domains + 4] writers to capture them. *)

  val tick : t -> Lc_obs.Window.entry
  (** Cut one window now: {!Lc_obs.Window.tick} plus journal recording
      (window cut, sketch snapshot, alert edges), the controller step
      when one is attached, and the [on_alert] / [on_window] callbacks.
      Monitored {!run}s call this from the monitor domain every
      [interval_s] and once after the join; exposed for tests and
      custom drivers. *)

  type cells
  (** A decoded [/cells.json] document. *)

  val cells_document : cells Lc_obs.Codec.document
  (** [/cells.json] (["lowcon-cells"] v1). Decoding checks that every
      sketch entry's [err] lies in [0, count], that the co-heat ratio is
      at least 0 and below 1, and that [count_histogram] is empty
      exactly when [coheat] is null. *)

  type windows
  (** A decoded [/windows.json] document. *)

  val windows_document : windows Lc_obs.Codec.document
  (** [/windows.json] (["lowcon-windows"] v1): the window ring as a
      list in {!Lc_obs.Window.codec}'s shape (the one a postmortem dump
      stores), then [alert_active] and [alert_fired_total]. Decoding
      checks that window indexes are consecutive and that no more
      listed windows fired than [alert_fired_total] counts. *)

  val updates_schema_name : string
  (** ["lowcon-updates"] — the [/updates.json] document's schema, so
      [lowcon validate] recognises a saved scrape by content. *)

  val updates_schema_version : int

  type updates
  (** A decoded [/updates.json] document. *)

  val updates_document : updates Lc_obs.Codec.document
  (** Decoding checks that [cumulative] is null exactly when
      [updates_seen] is false. *)

  val scaling_schema_name : string
  (** ["lowcon-scaling-live"] — the [/scaling.json] document's schema.
      Distinct from the offline ["lowcon-scaling"] artifact written by
      [lowcon scale]: this is one run's live telemetry, that is a
      fitted domain sweep. *)

  val scaling_schema_version : int

  type scaling
  (** A decoded [/scaling.json] document. *)

  val scaling_document : scaling Lc_obs.Codec.document
  (** Decoding checks the phase identity ({!phases_codec}) and that the co-heat
      ratio is at least 0 and below 1. *)

  val control_schema_name : string
  (** ["lowcon-control"] — the [/control.json] document's schema:
      the controller's policy, live hysteresis state and full decision
      log, reconciling field for field with the journaled
      [Control_decision] events. *)

  val control_schema_version : int

  type control
  (** A decoded [/control.json] document of an attached controller. *)

  val control_document : control option Lc_obs.Codec.document
  (** [None] when no controller is attached. Decoding checks the
      decision log: ids are 1..N with N = [decisions_total], every boost
      is a power of two between the policy's [min_boost] and
      [max_boost], and each decision chains from [boost.base]. *)

  val control_json : t -> string
  (** The [/control.json] body, also available without an HTTP server —
      what [lowcon monitor --control-out] saves for offline
      [lowcon validate] / reconciliation. *)

  val routes : t -> Lc_obs.Http.route list
  (** Scrape routes over the live (seqlock-read) state, safe to serve
      from an {!Lc_obs.Http} domain mid-run:

      - [/metrics] — Prometheus text: the merged cumulative snapshot
        (counters monotone across scrapes) plus the per-window gauges
        ({!Lc_obs.Window.prometheus_gauges});
      - [/snapshot.json] — the merged snapshot as JSON
        ({!Lc_obs.Export.json_snapshot});
      - [/cells.json] — {!cells_document}: merged top-k sketch entries
        with error bounds, plus a log-bucketed per-cell count histogram
        summed from the workers' live tallies when scraped (racy reads
        that may lag stores in flight; exactly the result's counts once
        the workers have joined);
      - [/windows.json] — {!windows_document}: the window ring and
        alert state;
      - [/updates.json] — the update-path view, schema-versioned
        (["lowcon-updates"] v1): cumulative builder counters (null when
        the run never exercised the update path) and the per-window
        update entries (ups, publications/s, write-amp, rebuild
        p50/p99, epoch/retired/reader-lag gauges);
      - [/scaling.json] — the scaling observatory's live view,
        schema-versioned (["lowcon-scaling-live"] v1): cumulative
        per-phase time attribution, GC allocation counters with the
        per-window GC entries, and the cache-line co-heat diagnostic
        (null for runs without live per-cell counters);
      - [/control.json] — the replication controller's view,
        schema-versioned (["lowcon-control"] v1): policy constants,
        live hysteresis state (score, cooldown, last windowed ratio)
        and the complete decision log ([attached: false] when no
        controller is attached);
      - [/healthz] — liveness.

      [/cells.json] additionally carries the same co-heat object next
      to its count histogram. *)
end

(** {1 The unified entry point}

    One configuration record, one [run] function, two workload shapes.
    [Config] carries everything that describes {e how} to serve
    (parallelism, seed, cost model, observability); the {!workload}
    variant describes {e what} to serve — a static instance under a
    query distribution, or an epoch-published dynamic dictionary under
    a mixed insert/delete/query stream. *)

module Config : sig
  type t = {
    domains : int;  (** Worker (reader) domains, the paper's [m]. *)
    seed : int;  (** Seeds batch sampling and per-domain rngs. *)
    cost : cost;  (** Probe cost model; {!Static} workloads only. *)
    obs : Lc_obs.Obs.t option;
        (** Observability handle: per-domain metric shards and span
            timelines, so telemetry adds no shared mutable state to
            the hot path. Absent = telemetry-free serving. *)
    monitor : Monitor.t option;
        (** Live monitoring; its handle supersedes [obs] when present. *)
  }

  val make :
    ?cost:cost ->
    ?obs:Lc_obs.Obs.t ->
    ?monitor:Monitor.t ->
    domains:int ->
    seed:int ->
    unit ->
    t
  (** [cost] defaults to {!Free}; [obs] and [monitor] to absent. *)
end

type workload =
  | Static of {
      inst : Lc_dict.Instance.t;
      qdist : Lc_cellprobe.Qdist.t;
      queries_per_domain : int;
    }
      (** The read-only serving mode: each domain drains a pre-sampled
          batch of [queries_per_domain] membership queries against a
          static instance. *)
  | Dynamic of {
      epoch : Lc_dynamic.Epoch.t;
      ops : Lc_workload.Opstream.op array;
      publish_every : int;
    }
      (** The read-write serving mode. [ops] is split by
          {!Lc_workload.Opstream.split}: queries are dealt round-robin
          to the [domains] reader domains (lock-free epoch-pinned
          probes), updates go in stream order to one extra builder
          domain, which publishes a snapshot every [publish_every]
          updates (plus once at stream end) and reclaims retired levels
          as readers leave. Requires [cost = Free]: the per-cell
          spinlock array is meaningless when the cell set changes per
          publication. Updates invisible to readers between
          publications; telemetry reconciles exactly —
          [engine_queries_total] = query ops, [engine_probes_total] =
          the readers' cumulative probe count. *)

type update_stats = {
  inserts : int;  (** Insert ops applied by the builder. *)
  deletes : int;  (** Delete ops applied by the builder. *)
  query_hits : int;  (** Queries that answered [true]. *)
  publications : int;  (** Snapshots published. *)
  reclaimed : int;  (** Levels freed by epoch reclamation. *)
  retired_pending : int;
      (** Retired levels still unfreed at the end — 0 after the
          post-join reclaim unless a reader leaked a pin. *)
  keys_rebuilt : int;  (** {!Lc_dynamic.Dynamic.keys_rebuilt} total. *)
  purges : int;  (** Tombstone purges triggered. *)
  final_live : int;  (** Live keys in the final snapshot. *)
  final_epoch : int;  (** Epoch of the final snapshot. *)
  cells_written : int;
      (** Exact cells written by level builds {e during this run}
          (lifetime {!Lc_dynamic.Dynamic.cells_written} minus the
          preload baseline) — reconciles with the
          [engine_cells_written_total] counter and the windowed
          [u_cells] sums. [rebuilds], [rebuild_ns] and [publish_ns]
          are baselined the same way. *)
  rebuilds : int;  (** Level builds performed. *)
  rebuild_ns : int;  (** Wall ns spent inside level builds. *)
  publish_ns : int;  (** Wall ns spent inside {!Lc_dynamic.Epoch.publish}. *)
  write_amp : float;
      (** [cells_written / inserts] — cells written per key inserted;
          0 when the stream had no inserts. *)
  builder_ns : int;
      (** Builder-domain wall time over the whole update stream,
          measured whether or not telemetry is attached — the numerator
          of ns/update. *)
  reclaim_lag_max : int;
      (** Worst reclamation lag in epochs
          ({!Lc_dynamic.Epoch.reclaim_lag_max}). *)
}

type outcome = {
  result : result;
      (** For {!Dynamic}: [queries] counts query ops, [counts] /
          [flat_bound] describe the {e final} snapshot's cells (probes
          to levels retired mid-run are preserved in [total_probes]
          but not in [counts]), and [name] is ["lc-dyn"]. *)
  windows : Lc_obs.Window.entry list;
      (** The window ring at completion, oldest first. The final entry
          is cut after the workers join, so summing [queries] over
          [windows] (when none were evicted) reconciles exactly with
          [result.queries], and its [hotspot_ratio] agrees with
          {!hotspot_ratio} of [result] to within the sketch error
          bound. *)
  cells : Lc_obs.Heavy.merged option;
      (** Final merged hot-cell sketch ([None] without a monitor). *)
  alert_windows : int;  (** Windows that fired the hotspot alert. *)
  updates : update_stats option;
      (** Builder-side statistics; [None] for {!Static} workloads. *)
  phases : phase_totals array option;
      (** Per-worker phase accounting, element [w] for worker [w];
          [None] exactly when the run was uninstrumented (no [obs], no
          [monitor]) — the obs-off hot path stays byte-identical. *)
}

val run : Config.t -> workload -> outcome
(** The single entry point. [run config (Static ...)] is the windowed
    read-only mode (telemetry-free when unobserved); [run config
    (Dynamic ...)] is the epoch-published read-write mode, with online
    re-replication when the config's monitor carries an attached
    controller. Raises [Invalid_argument], with a message starting
    ["Engine.run: "], when [domains], [queries_per_domain] or
    [publish_every] is below 1, on a monitor sized for a different
    domain count, and for {!Dynamic} with a [Spinlock] cost — before
    the run touches its workload. *)

val probe_sample_period : int
(** The engine samples 1 probe in this many for
    [engine_probe_latency_ns] — a calibration constant recorded in perf
    artifact fingerprints so artifacts from different engine builds are
    not silently compared. *)

val hotspot_ratio : result -> float
(** [hotspot_ratio r] is [r.hottest_count /. r.flat_bound]: how many
    times over the perfectly-flat tally the worst cell is. [O(1)] for
    the low-contention dictionary (Theorem 3); [Theta(space)] for a
    structure that funnels every query through one cell. *)

val answer_all :
  ?domains:int -> seed:int -> Lc_dict.Instance.t -> queries:int array -> bool array
(** [answer_all ~domains ~seed inst ~queries] answers the whole query
    array by round-robin partition across [domains] concurrent domains
    (counter-free probes), returning answers aligned with [queries] —
    the multi-domain counterpart of mapping [inst.mem] sequentially,
    used by the tier-1 agreement tests. Default [domains] is 2. *)

val count_histogram : result -> (int * int) list
(** Log-bucketed per-cell histogram: pairs [(upper, cells)] meaning
    [cells] cells received between [prev_upper + 1] and [upper] probes
    ([(0, k)] counts untouched cells). Buckets are powers of two; empty
    buckets are omitted. *)

val top_cells : result -> k:int -> (int * int) list
(** The [k] hottest cells as [(cell, count)], descending. *)
