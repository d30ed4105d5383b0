(** The scaling observatory's offline artifact: one structure served
    across a sweep of domain counts, each point carrying throughput,
    per-phase time attribution and GC telemetry, the whole curve fitted
    to Gunther's USL ({!Lc_analysis.Usl}).

    Where a bench artifact ({!Artifact}) answers "how fast is this
    configuration", a scaling artifact answers "{e why} does it stop
    getting faster": the fitted [sigma] is the serialisation
    coefficient the paper's replication argument is supposed to shrink,
    the phase shares say where the worker time actually went, and the
    allocation gauges rule GC in or out as the confound.

    Same trust discipline as {!Artifact}: schema name + version checked
    before any field is believed, non-finite floats refused at write
    time, and the embedded summary is {e recomputed from the points} at
    decode time — a dump whose summary disagrees with its own data is
    rejected, not repaired. *)

val schema_name : string
(** ["lowcon-scaling"]. Distinct from the engine's live
    ["lowcon-scaling-live"] route document: this is a fitted offline
    sweep, that is one run's cumulative telemetry. *)

val schema_version : int

type gc_totals = {
  minor_words : int;  (** Minor-heap words allocated by worker domains. *)
  promoted_words : int;
  major_words : int;
  minor_words_per_query : float;
      (** [minor_words / queries] — the allocation-per-query gauge; the
          engine hot path keeps this at 0. *)
}
(** GC telemetry summed over workers and trials for one sweep point. *)

type point = {
  p_domains : int;
  p_trials : int;
  throughput : Artifact.ci;  (** Queries/s; one sample per trial. *)
  p_ns_per_query : float;  (** Mean over trials. *)
  p_phases : Lc_parallel.Engine.phase_totals;
      (** The engine's phase accounting summed over workers and trials:
          {!Lc_parallel.Engine.phase_ns} reads one phase. [probe]
          excludes pin time for dynamic runs, [other] is the residual,
          [idle] lies outside the identity the sums keep. *)
  p_gc : gc_totals;
  p_queries : int;  (** Total queries across the point's trials. *)
}

type summary = {
  s_points : int;
  s_peak_qps : float;  (** Best mean throughput across points. *)
  s_peak_domains : int;  (** The domain count that achieved it. *)
  s_sigma : float option;  (** Fitted contention coefficient, if fitted. *)
  s_kappa : float option;
}
(** The derived headline — recomputed from [points]/[fit] at decode
    time and compared against the stored copy, so a hand-edited summary
    fails validation. *)

type t = {
  fingerprint : Artifact.fingerprint;
  structure : string;  (** {!Select.structure} name. *)
  workload : string;  (** {!Select.workload} spec. *)
  queries_per_domain : int;
  trials : int;
  points : point list;  (** Ascending, distinct domain counts. *)
  fit : Lc_analysis.Usl.fit option;
      (** The USL fit; [None] when the sweep is too degenerate to fit
          (fewer than three points, flat curve — see
          {!Lc_analysis.Usl.fit}), in which case [fit_error] says why.
          Exactly one of [fit] / [fit_error] is present. *)
  fit_error : string option;
  summary : summary;
}

type spec = {
  structure : string;
  workload : string;
  domain_counts : int list;  (** Must be distinct, positive, ascending. *)
  queries_per_domain : int;
  trials : int;
  n : int;  (** Keys; universe derived as in the CLI. *)
}

val run : ?progress:(string -> unit) -> seed:int -> spec -> t
(** Serve the sweep and return the artifact (not yet written). One
    instance and one query distribution, built from the combo seed, are
    shared by every point so throughput(n) compares like against like;
    each trial runs against a fresh telemetry handle. Per trial, the
    engine's telemetry counters are reconciled exactly against the
    result totals and each worker's phase accounting must pass
    {!Lc_parallel.Engine.check_phases} — a sweep whose attribution does
    not reconcile raises instead of fitting garbage. Raises
    [Invalid_argument] on a degenerate spec, [Failure] on
    reconciliation mismatch. *)

val document : t Lc_obs.Codec.document
(** The ["lowcon-scaling"] v1 shape; each point's ["phases"] object is
    {!Lc_parallel.Engine.phases_codec}, the one [/scaling.json] uses.
    Decoding checks point ordering, each point's phase identity, the
    fit/fit_error exclusivity, and recomputes the summary from the
    decoded points — a tampered or truncated document is rejected with
    a path-qualified reason. *)

val to_string : t -> string
(** Raises [Failure] on non-finite floats, like {!Artifact.to_string}. *)

val of_string : string -> (t, string) result
val load : string -> (t, string) result
val write : path:string -> t -> unit

val render : t -> string
(** The human table [lowcon scale] prints: one row per point (domains,
    qps, ns/query, phase shares of worker wall, alloc/query) and the
    fitted lambda / sigma / kappa / r2 line (or the fit-rejection
    reason), with the USL-predicted peak when the fit has one. *)
