(** The observability handle a subsystem threads through its hot path.

    An {!t} bundles one {!Metrics} registry with one {!Span} collector
    so that instrumented code ([Lc_parallel.Engine.run] through its
    config's [obs] field, [Lc_core.Dictionary.build ?obs], the
    [lowcon profile] subcommand) takes a single optional handle. The
    contract everywhere it appears: {e absent means free} — the
    instrumented code must do no telemetry work at all when no handle
    is supplied. *)

type t = { metrics : Metrics.t; spans : Span.t }

val create : unit -> t

val snapshot : t -> Metrics.Snapshot.t
(** Merge the metric shards (see {!Metrics.snapshot} for the quiescence
    requirement). *)

val timeline : t -> tid:int -> Span.timeline
val shard : t -> domain:int -> Metrics.shard
