(** Mid-run observation: seqlock-published shard views and a ring of
    windowed snapshots.

    {!Metrics.snapshot} is sound only at quiescence; this module is what
    lets a monitor domain watch a serving run {e while the workers are
    hot} without adding the contention it measures. Each worker owns a
    {!publisher}: every few hundred queries it copies its metric shard
    and its {!Heavy} sketch into the publisher's buffers with
    {!publish}, bumping an epoch counter to odd before and back to even
    after (a seqlock). A reader ({!tick}, {!live_snapshot},
    {!live_cells}) copies the buffers out, retrying while the epoch is
    odd or changed across the copy, then merges the stable copies. The
    worker's publish path takes no lock and allocates nothing; readers
    pay all the synchronisation.

    {!tick} additionally cuts a {e window}: it diffs the merged
    cumulative counters and latency histogram against the previous tick,
    derives per-window rates (qps, probes/s) and windowed p50/p99, reads
    the hot-cell sketch, computes [engine_hotspot_ratio] — the sketch's
    guaranteed hottest tally over the flat bound [queries * t / s], the
    quantity Theorem 3 keeps [O(1)] and naive FKS lets grow to
    [Theta(sqrt n)] — and updates the alert state. Entries land in a fixed-capacity ring
    (oldest evicted first).

    Reader-side entry points ([tick], [live_*], [entries], [last],
    [alert_*]) are mutually thread-safe (one internal mutex), so a
    monitor domain can tick on an interval while an HTTP domain scrapes. *)

type publisher
(** One worker's publication slot: epoch + frozen metric buffer + sketch
    buffer. *)

val publish : publisher -> Metrics.shard -> Heavy.t -> unit
(** Publish the worker's current cumulative state. Call from the owning
    domain only; lock-free and allocation-free. *)

(** {2 Metric names}

    The metrics a window diffs, by name. The engine registers its
    metrics under these names, and code that reads them back from a
    snapshot reads them by these names; a name that is not registered
    reads as 0.

    - Read side: [engine_queries_total] into [queries]/[qps],
      [engine_probes_total] into [probes]/[probes_per_s], and the
      [engine_query_latency_ns] histogram into the windowed p50/p99.
    - Update side (the builder domain): [engine_inserts_total],
      [engine_deletes_total], [engine_publications_total] and
      [engine_cells_written_total] into the {!uentry} deltas, the
      [engine_rebuild_ns] histogram into the windowed rebuild p50/p99,
      and the [engine_epoch], [engine_retired_pending] and
      [engine_reader_lag] gauges read at the cut.
    - GC: [engine_gc_minor_words_total], [engine_gc_promoted_words_total]
      and [engine_gc_major_words_total], allocation words summed over
      domains. Workers flush their own [Gc.counters] deltas into their
      shards, because [Gc.counters] reads the calling domain's own
      state. Collection {e counts} have no per-domain reading
      ([Gc.quick_stat] aggregates across domains), so {!tick} samples
      those globally at each cut. *)

val queries_counter : string
val probes_counter : string
val latency_histogram : string
val inserts_counter : string
val deletes_counter : string
val publications_counter : string
val cells_counter : string
val rebuild_histogram : string
val epoch_gauge : string
val retired_gauge : string
val reader_lag_gauge : string
val minor_words_counter : string
val promoted_words_counter : string
val major_words_counter : string

val ring_capacity : int
(** 512: the windows a recorder retains; older ones are evicted. *)

type config = {
  space : int;  (** The structure's cell count [s], for the flat bound. *)
  max_probes : int;  (** The structure's probe budget [t]. *)
  top_k : int;  (** Sketch capacity ({!Heavy.create}). *)
  alert_factor : float;
      (** Fire when [hotspot_ratio] exceeds this multiple of the flat
          bound — the Θ(√n)-regression detector's threshold. *)
}

type gentry = {
  g_minor_words : int;
      (** Minor-heap words allocated in this window, summed over
          domains. *)
  g_promoted_words : int;  (** Words promoted to the major heap. *)
  g_major_words : int;  (** Words allocated directly on the major heap. *)
  g_minor_collections : int;
      (** Minor collections during the window, process-wide
          ([Gc.quick_stat] delta). *)
  g_major_collections : int;  (** Major collection slices, process-wide. *)
  alloc_per_query : float;
      (** [g_minor_words / queries] — the allocation-per-query gauge; 0
          when the window saw no queries. *)
  g_heap_words : int;  (** Major heap size in words at the cut. *)
  cum_minor_words : int;  (** Cumulative allocation words at window end. *)
  cum_major_collections : int;
}
(** The windowed GC view — what the allocator and collector did during
    one window, cut by the same {!tick} that cuts the read-side
    fields. *)

type uentry = {
  u_inserts : int;  (** Inserts applied in this window. *)
  u_deletes : int;  (** Deletes applied in this window. *)
  ups : float;  (** Updates (inserts + deletes) per second. *)
  u_pubs : int;  (** Epoch publications in this window. *)
  pubs_per_s : float;
  u_cells : int;  (** Cells written by level builds in this window. *)
  write_amp : float;
      (** [u_cells / u_inserts] — windowed write amplification; [0] when
          the window saw no inserts. *)
  rebuild_p50_ns : float;
      (** Windowed level-rebuild duration quantiles from histogram
          deltas; 0 when the window saw no rebuilds. *)
  rebuild_p99_ns : float;
  u_epoch : int;  (** Published epoch at window end (gauge read). *)
  u_retired : int;  (** Retired-but-unfreed levels at window end. *)
  u_reader_lag : int;
      (** Published epoch minus the slowest pinned reader's announced
          epoch at window end (0 when all readers are quiescent). *)
  cum_updates : int;  (** Cumulative inserts + deletes at window end. *)
  cum_cells : int;  (** Cumulative cells written at window end. *)
}
(** The windowed update view — what the update path did during one
    window, cut by the same {!tick} that cuts the read-side fields. *)

type entry = {
  index : int;  (** 0-based window sequence number. *)
  t_start_s : float;  (** Window bounds, seconds since {!create}. *)
  t_end_s : float;
  queries : int;  (** Queries completed in this window. *)
  probes : int;
  qps : float;
  probes_per_s : float;
  p50_ns : float;  (** Windowed latency quantiles from histogram deltas; 0 when the window saw no queries. *)
  p99_ns : float;
  top_cells : Heavy.entry list;  (** Cumulative top-k at window end. *)
  max_cell : int;
      (** The cell with the largest {e guaranteed} sketched tally
          ({!Heavy.max_guaranteed}); -1 when nothing observed. *)
  max_share : float;  (** Its guaranteed share of all probes so far. *)
  hotspot_ratio : float;
      (** Guaranteed sketched hottest tally ([count - err]) / flat bound
          [cum_queries * t / s]. A sound lower bound on the exact
          {!Lc_parallel.Engine.hotspot_ratio}, within
          [error_bound / flat] of it (see {!Heavy.max_guaranteed}) — so
          an alert is never sketch noise, and a genuine hot cell (whose
          bounds pinch) is not missed. *)
  alert : bool;  (** [hotspot_ratio > alert_factor] this window. *)
  cum_queries : int;  (** Cumulative totals at window end. *)
  cum_probes : int;
  updates : uentry option;
      (** The update-path view — [None] while the run has not exercised
          the update path (static workloads leave the builder counters
          at zero). *)
  gc : gentry option;
      (** The GC view. {!tick} cuts one on every window (a window with
          zero allocation is itself a finding); [None] only in a decoded
          window stored without one. *)
}

type t
(** The recorder: publishers, ring, delta state, alert state. *)

val create : Metrics.t -> config -> publishers:int -> t
(** [create metrics config ~publishers] sizes one publisher per
    recording domain. Create it {e after} registering the metrics under
    the names above (buffers are sized to the registry's current
    definitions). The global collection counts are baselined here, so
    the first window reports collections during the run, not since
    process start. *)

val publisher : t -> int -> publisher
val config : t -> config

val tick : t -> entry
(** Read every publisher, merge, diff against the previous tick, append
    a window to the ring and return it. Call from the monitor domain (or
    any non-worker domain) on whatever cadence defines a window. *)

val live_snapshot : t -> Metrics.Snapshot.t
(** Merged cumulative snapshot of the published views, at any moment —
    the mid-run counterpart of {!Metrics.snapshot}. Counters are
    monotone across successive calls (each publisher's slot is a
    cumulative copy). *)

val live_cells : t -> Heavy.merged
(** Merged hot-cell sketch of the published views. *)

val entries : t -> entry list
(** Ring contents, oldest first (at most {!ring_capacity}). *)

val last : t -> entry option
val total_windows : t -> int

val alert_active : t -> bool
(** True while the latest window exceeded the alert factor. *)

val alert_firing_run : t -> int
(** Consecutive windows (ending at the latest) in the alert state. *)

val alert_fired_total : t -> int
(** Windows that fired over the recorder's lifetime. *)

val prometheus_gauges : t -> string
(** [# HELP]/[# TYPE]/value lines for [engine_hotspot_ratio],
    [engine_hotspot_alert], [engine_window_qps] and
    [engine_window_p99_latency_ns] from the latest window — appended by
    the [/metrics] route after the merged snapshot's series. When the
    latest window carries an update view, also [engine_window_ups],
    [engine_window_pubs_per_s], [engine_window_write_amp] and
    [engine_window_rebuild_p99_ns] (the epoch, retired-pending and
    reader-lag gauges the view reads are registry gauges, so the
    snapshot already exports them). Once a window is cut, also
    [engine_window_alloc_per_query], [engine_window_minor_words],
    [engine_window_promoted_words], [engine_window_minor_collections],
    [engine_window_major_collections] and [engine_gc_heap_words]. *)

(** {2 JSON shapes} *)

val codec : entry Codec.t
(** A window as a postmortem dump stores it: the optional [updates] and
    [gc] objects first, then every read-side field. *)

val update_members : uentry Codec.t
(** The update members of one [/updates.json] window: every field but
    the cumulative [cum_updates] and [cum_cells], which decode as 0. *)

val gc_members : gentry Codec.t
(** The GC members of one [/scaling.json] window: every field but the
    cumulative [cum_minor_words] and [cum_major_collections], which
    decode as 0. *)
