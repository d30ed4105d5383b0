(** A dynamic low-contention dictionary — the paper's closing question
    ("study the contention caused by the updates in dynamic data
    structures"), made concrete.

    {2 Construction}

    The classic logarithmic method (Bentley-Saxe): live keys are
    partitioned into levels, level [i] holding either nothing or a
    static low-contention dictionary ({!Lc_core.Dictionary}) over
    exactly [2^i] keys. An insert cascades the lowest empty level:
    level [j] absorbs the new key plus all keys of levels [0..j-1]
    (one expected-[O(2^j)] static rebuild, so inserts cost amortized
    [O(log n)] rebuilt keys). Deletions are tombstones with a global
    purge once half the stored keys are dead, keeping space and query
    time honest. A membership query probes levels from largest to
    smallest and stops at the first hit.

    {2 What happens to contention — the finding this module exists for}

    Dynamization {e breaks} Theorem 3's guarantee: every query probes
    every non-empty level, and a level holding [2^i] keys is a table of
    only [Theta(2^i)] cells, so its cells see contention [Theta(1/2^i)]
    — for small levels, a hot spot as bad as an unreplicated index cell.
    Experiment F7 measures exactly this.

    The mitigation implemented here (and measured by the same
    experiment) is {e level replication}: with [small_level_boost = B],
    level [i] keeps [max 1 (B / 2^i)] independently built replicas and
    each query probes a uniformly chosen one, dividing the level's
    per-cell contention by the replica count at a bounded space and
    rebuild-cost premium. This levels small-level contention down to
    [Theta(1/B)]; making the {e whole} dynamic structure [O(1/n)] again
    within [O(n)] space appears to genuinely require new ideas — which
    is presumably why the paper left it as future work. DESIGN.md
    discusses the trade-off.

    Tombstone bookkeeping lives in an O(1) RAM-model side table and is
    not charged cell probes; the object of study is the contention on
    the (static, repeatedly rebuilt) cell-probe tables. *)

type t

val create :
  ?small_level_boost:int -> Lc_prim.Rng.t -> universe:int -> unit -> t
(** [create rng ~universe ()] is an empty dynamic dictionary over
    [0, universe). [small_level_boost] (default 1 = off) is the [B]
    above; it must be a power of two. *)

val insert : t -> int -> unit
(** [insert t x] adds [x] (no-op if already present; un-deletes a
    tombstoned key). Amortized expected [O(log n)] rebuilt keys. *)

val delete : t -> int -> unit
(** [delete t x] removes [x] (no-op if absent). Triggers a purge
    rebuild when tombstones reach half of the stored keys. *)

val mem : t -> Lc_prim.Rng.t -> int -> bool
(** Membership by plain reads of the level tables, largest level
    first, each through one uniformly drawn replica's core (built once
    per level); every probe adds to {!probes}. *)

val size : t -> int
(** Number of live keys. *)

val universe : t -> int
(** The key universe bound given to {!create}. *)

val space : t -> int
(** Total cells across all level tables and replicas. *)

val small_level_boost : t -> int
(** The effective replication boost [B]: level [i] keeps
    [max 1 (B / 2^i)] replicas. Builder-owned plain field. *)

val set_small_level_boost : t -> int -> int
(** [set_small_level_boost t b] changes the effective boost in place —
    the replication controller's actuation primitive. Must be a power of
    two. Only levels whose replica count changes under the new boost are
    rebuilt (through the same accounted build path as inserts: rebuild
    counters, {!cells_written} and the build hook all fire), and each
    rebuilt level gets a fresh record, so a following
    {!Epoch.publish} retires the old replicas and publishes the new
    ones without ever blocking readers. Returns the number of levels
    rebuilt (0 when [b] equals the current boost). Builder-side only. *)

val level_sizes : t -> (int * int * int) list
(** [(level, keys, replicas)] for each non-empty level, ascending. *)

val keys_rebuilt : t -> int
(** Total keys passed through static rebuilds since creation — the
    amortized-cost counter of experiment T9. *)

val purges : t -> int
(** Number of global tombstone purges. *)

val probes : t -> int
(** Cumulative cell probes issued by {!mem} since creation (across all
    rebuilds — unlike the per-table counters, this survives levels being
    discarded). *)

val cells_written : t -> int
(** Exact cells written by level builds since creation: every
    {e build_level} adds the sum of [Dictionary.space] over the replicas
    it constructed. Divided by the number of keys inserted this is the
    structure's write amplification. Builder-owned plain counter — read
    it only from the domain that mutates [t]. *)

val rebuilds : t -> int
(** Number of level builds since creation (each Bentley–Saxe cascade
    target or purge-rebuild chunk counts once). Builder-owned. *)

val rebuild_ns : t -> int
(** Cumulative wall time, in nanoseconds, spent inside level builds.
    Builder-owned. *)

type build_info = {
  bi_index : int;  (** Level index that was (re)built. *)
  bi_keys : int;  (** Keys merged into the level ([2^bi_index]). *)
  bi_replicas : int;  (** Independently built replica count. *)
  bi_cells : int;  (** Exact cells written (sum of replica spaces). *)
  bi_ns : int;  (** Wall duration of the build, nanoseconds. *)
}
(** One Bentley–Saxe merge as seen by the update-path observatory. *)

val set_build_hook : t -> (build_info -> unit) -> unit
(** [set_build_hook t f] calls [f] after every level build with that
    build's exact accounting, from the mutating (builder) domain, before
    the level is installed. At most one hook; a second call replaces the
    first. The hook runs on the update path — keep it allocation-light
    (plain stores into builder-owned telemetry, as {!Lc_obs.Metrics}
    shards do). *)

val clear_build_hook : t -> unit
(** Remove the build hook, if any. *)

type level_view = {
  lv_index : int;  (** The level's index [i]; it holds [2^i] keys. *)
  lv_keys : int array;  (** The stored keys (tombstones included), a copy. *)
  lv_replicas : Lc_core.Dictionary.t array;
      (** The level's replica array — {e not} a copy. Its physical
          identity is stable for the level's whole lifetime (every
          rebuild allocates a fresh level), so callers may use it as the
          level's identity token across calls; {!Epoch} keys its
          snapshot cache on exactly this. Treat as read-only. *)
}

val level_views : t -> level_view list
(** The non-empty levels, ascending by index — the introspection hook
    {!Epoch} snapshots from. *)

val tombstone_keys : t -> int list
(** The currently tombstoned keys, sorted ascending. *)

type contention_summary = {
  total_cells : int;
  per_level : (int * float) list;
      (** [(level, s_total * max_j Phi(j))] — each level's worst cell,
          normalized against the {e total} space so levels are
          comparable; replicas divide a level's contention evenly. *)
  worst : float;  (** Max over levels. *)
  worst_level : int;  (** The level attaining it. *)
}

val contention_exact : t -> Lc_cellprobe.Qdist.t -> contention_summary
(** Exact contention of the query algorithm under [q]: a query's plan
    touches every level down to (and including) the one that holds it,
    using each level's exact static probe plans. Replica choice is
    uniform; replicas are statistically identical, so replica 0 is
    computed exactly and scaled by the replica count. *)

val check : t -> Lc_prim.Rng.t -> (unit, string) result
(** Structural self-check: every level's static verifier passes, level
    populations are exact powers of two, no key lives in two levels,
    tombstones are all present in some level, and every live key
    answers [true] / every tombstone [false]. *)
