(** Operation streams for dynamic-dictionary workloads.

    The T9/F7 experiments and the dynamic example need realistic
    insert/delete/query mixes; this module generates them with a chosen
    operation mix and key locality, and folds them over any consumer.
    Streams are deterministic given the generator's rng. *)

type op =
  | Insert of int
  | Delete of int
  | Query of int

type mix = {
  p_insert : float;
  p_delete : float;  (** Remaining mass is queries. *)
}

val read_write_mix : read_fraction:float -> mix
(** The serving-workload shape: [read_fraction] of the stream is
    queries, the remaining update mass split evenly between inserts and
    deletes (so the live size stays roughly stationary). The perf
    suite's 90/10 configuration is [read_write_mix ~read_fraction:0.9]. *)

val generate :
  ?mix:mix ->
  ?initial_pool:int array ->
  Lc_prim.Rng.t ->
  universe:int ->
  length:int ->
  working_set:int ->
  op array
(** [generate rng ~universe ~length ~working_set] draws [length]
    operations. Keys come from a working set of [working_set] distinct
    values (fresh uniform keys enter the set when an insert needs one);
    deletes and queries target current or recently-seen members, so the
    stream exercises hits, misses and re-insertions.

    [initial_pool] seeds the working set (it must fit in [working_set]
    and lie inside the universe): the mixed serving workloads preload
    the dictionary with these keys, so queries can hit from the very
    first operation instead of warming up from an empty pool. *)

val point_mass :
  ?mix:mix ->
  ?initial_pool:int array ->
  Lc_prim.Rng.t ->
  universe:int ->
  length:int ->
  working_set:int ->
  hot_from:int ->
  hot_share:float ->
  hot_key:int ->
  op array
(** A flash crowd: {!generate}'s stream with a point mass injected at a
    configurable offset. Every query at index [>= hot_from] targets
    [hot_key] with probability [hot_share] (the remainder keep their
    base key), so the stream is flat until the offset and then slams
    one key — the workload the replication controller exists to absorb.

    The base stream is drawn first and rewritten in a second rng pass,
    so the prefix before [hot_from] is {e exactly} what {!generate}
    would have produced from the same rng state; with an
    [initial_pool] that fills [working_set] and excludes [hot_key], the
    hot key appears zero times before the offset. Deterministic given
    the rng seed. *)

val shifting_zipf :
  ?exponent:float -> Lc_prim.Rng.t -> pool:int array -> length:int -> shift_every:int -> op array
(** A query-only stream whose hot set {e moves}: ranks follow a Zipf
    law with [exponent] (default 1.0, higher = more skewed) over the
    key pool, and the rank-to-key mapping rotates by one every
    [shift_every] operations ([pool.((rank + i / shift_every) mod n)]),
    so the hottest key walks through the pool. Exercises a controller's
    cool-down: each shift is a fresh mini-crowd, and a policy without
    hysteresis would thrash. Deterministic given the rng seed. *)

val counts : op array -> int * int * int
(** [(inserts, deletes, queries)] in the stream — the totals a serving
    run reconciles its telemetry against. *)

val split : op array -> domains:int -> op array * int array array
(** [split ops ~domains] partitions a stream for the concurrent engine:
    the update subsequence (inserts and deletes, in stream order — the
    single builder domain applies them as-is) and one query-key array
    per reader domain, dealt round-robin so each domain sees the same
    key locality. Query count over all domains equals the stream's. *)

val apply :
  Lc_dynamic.Dynamic.t -> Lc_prim.Rng.t -> op array -> int * int * int
(** [apply t rng ops] plays the stream against a dynamic dictionary and
    returns [(inserts, deletes, query_hits)] — the consumer used by the
    tests to cross-check against a model set. *)

val replay_oracle : op array -> bool array
(** The reference semantics: the expected result of each [Query] when
    the stream is applied to an initially-empty set (entries for
    non-query operations are [false] and unused). *)
