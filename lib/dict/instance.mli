(** A first-class membership structure in the cell-probe model.

    Every dictionary in this repository — the baselines here and the
    paper's low-contention dictionary in [Lc_core] — exposes itself as a
    {!Dict_intf.S} core: a table, a space/probe budget, a query
    procedure parameterised by the probing function, and the exact
    per-query probe plan, both derived by {!Dict_intf.make} from the
    structure's one query. An {!t} wraps one core together with a chosen
    {e probing mode}, which decides what a probe physically does:

    - {!uninstrumented} (the default, and what {!of_core} builds):
      probes are plain reads ({!Lc_cellprobe.Table.peek}); the query
      path is pure with respect to shared state and therefore safe to
      run from many domains.
    - {!atomic}: probes are plain reads plus a fetch-and-add on a
      per-cell [Atomic.t] counter owned by the instance — reentrant
      {e and} counted. No serving path uses it: the [lc_parallel]
      engine drives the core with its own per-domain tallies. Tests use
      it as a reference count, and [bench/e2e] prices it as
      [dict.tally_ns].

    Code that counts probes passes its own probe to the core's [mem]:
    {!contention_mc} and {!check_spec_against_mem} do, in state local
    to the call.

    The record fields are exposed read-only by convention: consumers
    (experiments, the lower-bound game, tests) read [mem], [spec],
    [space], [max_probes], [name]; only the builders in this library and
    [Lc_core.Dictionary] construct values, via {!of_core}. *)

type mode =
  | Uninstrumented  (** Counter-free plain reads; reentrant. *)
  | Atomic_counters  (** Per-cell [Atomic.t] counters; reentrant. *)

type t = {
  name : string;  (** Human-readable structure name for tables. *)
  table : Lc_cellprobe.Table.t;  (** The cells. *)
  space : int;  (** Number of cells, the paper's [s]. *)
  max_probes : int;  (** Worst-case probes per query, the paper's [t]. *)
  mem : Lc_prim.Rng.t -> int -> bool;
      (** [mem rng x] answers the membership query through this
          instance's probing mode; [rng] drives only probe balancing. *)
  spec : int -> Lc_cellprobe.Spec.t;
      (** [spec x] is the exact probe plan the query algorithm uses for
          [x] on this table. *)
  core : (module Dict_intf.S);
      (** The underlying implementation, shared by all modes. *)
  mode : mode;
  counters : int Atomic.t array;
      (** Per-cell atomic probe counters; length [space] in
          [Atomic_counters] mode and empty otherwise. Prefer
          {!atomic_counts} for reading. *)
}

val of_core : (module Dict_intf.S) -> t
(** The canonical constructor: wrap a core in [Uninstrumented] mode. *)

val mode : t -> mode

val core : t -> (module Dict_intf.S)
(** The underlying implementation; callers that need a bespoke probing
    discipline (e.g. the parallel engine's cost models) drive its [mem]
    with their own {!Dict_intf.probe}. *)

val uninstrumented : t -> t
(** [uninstrumented t] shares [t]'s core and table but performs
    counter-free probes; the resulting [mem] is reentrant and may be
    called concurrently from multiple domains (each with its own
    [Rng.t]). Returns [t] itself if already in that mode. *)

val atomic : t -> t
(** [atomic t] shares [t]'s core and table and counts every probe with
    a fetch-and-add on a {e fresh} per-cell [Atomic.t] array (so each
    call starts a new tally). The resulting [mem] is reentrant. *)

val atomic_counts : t -> int array
(** Snapshot of the per-cell atomic counters. Raises [Invalid_argument]
    unless the instance is in [Atomic_counters] mode. *)

val contention_exact : t -> Lc_cellprobe.Qdist.t -> Lc_cellprobe.Contention.result
(** Exact contention of this structure under a query distribution. *)

val contention_mc :
  t -> Lc_cellprobe.Qdist.t -> rng:Lc_prim.Rng.t -> queries:int -> Lc_cellprobe.Contention.result
(** Monte-Carlo contention by replaying queries through the core's
    [mem] ({!Lc_cellprobe.Contention.monte_carlo}); any mode. *)

val check_spec_against_mem :
  t -> rng:Lc_prim.Rng.t -> queries:int array -> (unit, string) result
(** Cross-validation used by the test suite: for each query, run the
    core's [mem] through a probe that records each [(step, cell)], and
    confirm that it makes as many probes as [spec] plans, that probe [i]
    is made as step [i], and that it lands inside the support of [spec]
    step [i]. Works for any mode: the check drives the core directly. *)
