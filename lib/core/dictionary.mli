(** Public facade: the low-contention static dictionary.

    This is the API a downstream user sees — Theorem 3 as a library. For
    the membership problem on [n] keys from a universe of size [N], and
    query distributions uniform on positives and uniform on negatives, it
    provides an [(O(n), b, O(1), O(1/n))]-balanced cell-probing scheme:

    - space: [O(n)] cells of [b = Theta(log N)] bits ({!space});
    - time: at most [2d + rho + 4 = O(1)] probes per query
      ({!max_probes});
    - contention: [O(1/n)] expected probes per cell per query
      (measured by experiments T1/T2; the guarantee holds for uniform
      positive / uniform negative query distributions);
    - construction: expected [O(n)] time ({!build}).

    {[
      let rng = Lc_prim.Rng.create 42 in
      let keys = [| 3; 14; 15; 92; 65; 35 |] in
      let dict = Dictionary.build rng ~universe:1024 ~keys in
      assert (Dictionary.mem dict rng 92);
      assert (not (Dictionary.mem dict rng 4))
    ]} *)

type t

exception Build_failed of { stage : string; trials : int; detail : string }
(** An alias for {!Structure.Build_failed} (the same exception
    constructor, rebound), raised by {!build} when rejection sampling
    exhausts [max_trials];
    carries the failing stage, the trials consumed, and the instance
    parameters. *)

val build :
  ?d:int ->
  ?delta:float ->
  ?c:float ->
  ?alpha:float ->
  ?beta:int ->
  ?max_trials:int ->
  ?obs:Lc_obs.Obs.t ->
  Lc_prim.Rng.t ->
  universe:int ->
  keys:int array ->
  t
(** [build rng ~universe ~keys] derives parameters
    ({!Params.make}) and runs the Section 2.2 construction. Keys must be
    distinct and in [0, universe). Expected O(n) time.
    Raises [Invalid_argument] on bad inputs and {!Build_failed} (with
    stage and trial diagnostics) if rejection sampling exhausts
    [max_trials].

    [obs] wires the construction stages into the observability layer —
    spans for [P(S)] sampling / GBAS layout / per-bucket perfect hashing
    / row writing, plus rejection-reason counters; see
    {!Structure.build}. Absent (the default) means no telemetry work. *)

val mem : t -> Lc_prim.Rng.t -> int -> bool
(** [mem t rng x] answers the membership query; [rng] only balances
    probes across replicas, so the answer is deterministic. *)

val params : t -> Params.t
val structure : t -> Structure.t

val space : t -> int
(** Total cells. *)

val max_probes : t -> int

val build_trials : t -> int
(** [P(S)] rejection-sampling trials (experiment T6). *)

val spec : t -> int -> Lc_cellprobe.Spec.t
(** Exact probe plan for a query: {!Query.query} run under a [Plan]
    reader. *)

val core : t -> (module Lc_dict.Dict_intf.S)
(** The dictionary as a first-class {!Lc_dict.Dict_intf.S} core — the
    reentrant query path, parameterised by the probing function. *)

val instance : t -> Lc_dict.Instance.t
(** The uniform experiment-facing instance ({!Lc_dict.Instance.of_core},
    plain reads). *)

val verify : t -> (unit, string) result
(** Full structural invariant check ({!Verify.check}). *)
