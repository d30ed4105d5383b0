(** Differential regression analysis between two bench artifacts.

    Entries are matched by {!Artifact.key}; each matched configuration's
    ns/query and probes/query distributions are compared with {e two}
    independent checks that must both agree before anything is flagged:
    the Mann-Whitney U rank test on the raw per-trial samples
    ({!Lc_analysis.Sigtest.mann_whitney_u}, [p < alpha]) and
    disjointness of the bootstrap confidence intervals. An artifact
    diffed against itself therefore always reports no change. *)

type verdict = Regression | Improvement | No_change

type metric_diff = {
  a_mean : float;
  b_mean : float;
  delta_pct : float;  (** [(b - a) / a * 100]; positive means B is worse. *)
  p : float;  (** Two-sided Mann-Whitney p-value. *)
  method_ : Lc_analysis.Sigtest.method_;
  disjoint : bool;  (** Whether the bootstrap CIs do not overlap. *)
  verdict : verdict;
}

type row = { key : string * string * int; ns : metric_diff; probes : metric_diff }

type report = {
  rows : row list;  (** Matched configurations, in A's order. *)
  only_in_a : (string * string * int) list;
  only_in_b : (string * string * int) list;
  regressions : int;  (** Rows where either metric regressed. *)
  improvements : int;
  alpha : float;
}

val compare_artifacts : ?alpha:float -> Artifact.t -> Artifact.t -> report
(** [alpha] defaults to 0.05. Raises [Invalid_argument] for an alpha
    outside (0, 1). *)

val has_regression : report -> bool

val render : report -> string
(** Aligned {!Lc_analysis.Tablefmt} table plus unmatched-key and summary
    lines. *)

val document : report Lc_obs.Codec.document
(** The ["lowcon-perf-diff"] v1 shape. Decoding recomputes
    [regressions] and [improvements] from the rows, by the rule
    {!compare_artifacts} counts them. *)

val to_json : report -> Lc_obs.Json.t

val prometheus : report -> string
(** [perf_diff_*] gauges in the exposition format, built through the
    {!Lc_obs.Metrics} registry and {!Lc_obs.Export.prometheus}. *)

val key_string : string * string * int -> string
