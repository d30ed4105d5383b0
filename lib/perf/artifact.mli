(** Schema-versioned bench artifacts ([BENCH_<n>.json]).

    One artifact is one run of the perf suite: per-configuration timing
    and probe-count distributions with bootstrap confidence intervals,
    plus an environment fingerprint pinning everything that could
    silently change the numbers (toolchain, machine, engine calibration
    constants, seed, git revision). The writer is {e strict} — a NaN or
    infinity anywhere aborts with a typed path instead of emitting a
    [null] — and the reader validates schema name, version, field types
    and basic invariants before returning a value, so [lowcon perf diff]
    never compares garbage. *)

val schema_name : string
(** ["lowcon-bench"]. *)

val schema_version : int

type ci = {
  mean : float;
  lo : float;  (** Bootstrap CI lower bound. *)
  hi : float;
  samples : float list;  (** Raw per-trial values, for rank tests at diff time. *)
}

(** One (structure, workload, domain-count) configuration's results. *)
type entry = {
  structure : string;  (** A {!Select.structure} name. *)
  workload : string;  (** A {!Select.workload} spec. *)
  domains : int;
  queries_per_domain : int;
  trials : int;
  ns_per_query : ci;
  probes_per_query : ci;
  p50_ns : float;  (** Median across trials of per-trial latency quantiles. *)
  p99_ns : float;
  hotspot_ratio : float;  (** Sketch-guaranteed hottest tally over the flat bound. *)
  queries : int;  (** Total queries across all trials (reconciled with counters). *)
  probes : int;
  ns_per_update : ci option;
      (** Builder wall-time per update op; [None] for read-only
          configurations and in artifacts written before the update
          observatory (the field is simply absent from their JSON). *)
  write_amp : float option;
      (** Mean cells written per key inserted across trials; [None]
          exactly when [ns_per_update] is. *)
  minor_words_per_query : float option;
      (** Mean minor-heap words allocated per query across trials (from
          the per-domain [engine_gc_minor_words_total] counters); [None]
          in artifacts written before the scaling observatory. The
          engine hot path keeps this at 0 — a nonzero value in a bench
          entry is itself a regression signal. *)
  major_collections : int option;
      (** Major collection slices during the entry's trials, summed
          (process-wide [Gc.quick_stat] delta around each trial); [None]
          in pre-observatory artifacts. *)
}

type fingerprint = {
  ocaml_version : string;
  os_type : string;
  word_size : int;
  cores : int;  (** [Domain.recommended_domain_count] at run time. *)
  git_rev : string;  (** Resolved from [.git/HEAD]; ["unknown"] outside a checkout. *)
  seed : int;  (** The run's single [--seed]; every trial seed derives from it. *)
  clock_overhead_ns : float;  (** Measured cost of one {!Lc_obs.Clock.now_ns} call. *)
  probe_sample_period : int;  (** {!Lc_parallel.Engine.probe_sample_period}. *)
  created_unix : float;
}

type t = { fingerprint : fingerprint; entries : entry list }

val fingerprint : seed:int -> fingerprint
(** Capture the current environment (reads [.git/HEAD], calibrates the
    clock). *)

val document : t Lc_obs.Codec.document
(** The ["lowcon-bench"] v1 shape. Decoding checks every field's
    presence and type and the basic invariants: non-empty entries and
    samples, [lo <= hi], positive [domains]/[trials]. *)

val to_string : t -> string
(** Strict serialisation; raises [Failure] naming the JSON path if any
    value is NaN or infinite. *)

val of_string : string -> (t, string) result
val load : string -> (t, string) result

val write : path:string -> t -> unit
(** Atomic write via {!Lc_obs.Export.write_file}. *)

val next_path : dir:string -> string
(** [dir/BENCH_<n>.json] for the smallest [n] past every existing
    artifact in [dir]. *)

val key : entry -> string * string * int
(** The identity a differ matches entries by:
    [(structure, workload, domains)]. *)

(** {2 Pieces shared with the postmortem and scaling artifacts} *)

val fingerprint_codec : fingerprint Lc_obs.Codec.t

val ci_codec : ci Lc_obs.Codec.t
(** Checks non-empty samples and [lo <= hi]. *)
