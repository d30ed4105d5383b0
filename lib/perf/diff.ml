(* Differential analysis of two bench artifacts.

   "Is B slower than A?" gets answered per configuration and per metric
   with two independent checks that must agree: the Mann-Whitney U rank
   test on the raw per-trial samples (exact null distribution at these
   sample sizes) and disjointness of the bootstrap confidence
   intervals. Rank test alone flags tiny-but-consistent shifts a CI
   would shrug at; CI alone flags lucky rank orderings; requiring both
   keeps a noisy CI run from crying wolf. *)

module Codec = Lc_obs.Codec
module Metrics = Lc_obs.Metrics
module Sigtest = Lc_analysis.Sigtest
module Tablefmt = Lc_analysis.Tablefmt

type verdict = Regression | Improvement | No_change

type metric_diff = {
  a_mean : float;
  b_mean : float;
  delta_pct : float;
  p : float;
  method_ : Sigtest.method_;
  disjoint : bool;
  verdict : verdict;
}

type row = { key : string * string * int; ns : metric_diff; probes : metric_diff }

type report = {
  rows : row list;
  only_in_a : (string * string * int) list;
  only_in_b : (string * string * int) list;
  regressions : int;
  improvements : int;
  alpha : float;
}

let verdicts =
  [ ("REGRESSION", Regression); ("improvement", Improvement); ("no change", No_change) ]
let verdict_string v = fst (List.find (fun (_, v') -> v' = v) verdicts)

let key_string (s, w, d) = Printf.sprintf "%s/%s@%d" s w d

let diff_metric ~alpha (a : Artifact.ci) (b : Artifact.ci) =
  let xs = Array.of_list a.Artifact.samples and ys = Array.of_list b.Artifact.samples in
  let mw = Sigtest.mann_whitney_u xs ys in
  let disjoint =
    Sigtest.ci_disjoint ~a:(a.Artifact.lo, a.Artifact.hi) ~b:(b.Artifact.lo, b.Artifact.hi)
  in
  let a_mean = a.Artifact.mean and b_mean = b.Artifact.mean in
  let delta_pct = if a_mean = 0.0 then 0.0 else (b_mean -. a_mean) /. a_mean *. 100.0 in
  let significant = mw.Sigtest.p_two_sided < alpha && disjoint in
  let verdict =
    if not significant then No_change
    else if b_mean > a_mean then Regression
    else Improvement
  in
  {
    a_mean;
    b_mean;
    delta_pct;
    p = mw.Sigtest.p_two_sided;
    method_ = mw.Sigtest.method_;
    disjoint;
    verdict;
  }

(* Rows where either metric got verdict [v]: how a report counts its
   regressions and improvements, and how a decoded one is re-checked. *)
let count rows v =
  List.length (List.filter (fun r -> r.ns.verdict = v || r.probes.verdict = v) rows)

let compare_artifacts ?(alpha = 0.05) (a : Artifact.t) (b : Artifact.t) =
  if alpha <= 0.0 || alpha >= 1.0 then invalid_arg "Diff.compare_artifacts: alpha outside (0, 1)";
  let index art =
    List.map (fun (e : Artifact.entry) -> (Artifact.key e, e)) art.Artifact.entries
  in
  let ia = index a and ib = index b in
  let rows =
    List.filter_map
      (fun (k, (ea : Artifact.entry)) ->
        match List.assoc_opt k ib with
        | None -> None
        | Some eb ->
          Some
            {
              key = k;
              ns = diff_metric ~alpha ea.Artifact.ns_per_query eb.Artifact.ns_per_query;
              probes =
                diff_metric ~alpha ea.Artifact.probes_per_query eb.Artifact.probes_per_query;
            })
      ia
  in
  let missing_from other = List.filter_map (fun (k, _) -> if List.mem_assoc k other then None else Some k) in
  {
    rows;
    only_in_a = missing_from ib ia;
    only_in_b = missing_from ia ib;
    regressions = count rows Regression;
    improvements = count rows Improvement;
    alpha;
  }

let has_regression r = r.regressions > 0

let render r =
  let t =
    Tablefmt.create ~title:(Printf.sprintf "perf diff (alpha = %g, MW-U + CI overlap)" r.alpha)
      ~columns:
        [ "config"; "ns/q A"; "ns/q B"; "dns%"; "p(ns)"; "probes/q A"; "probes/q B"; "dpr%";
          "p(pr)"; "verdict" ]
  in
  List.iter
    (fun row ->
      let worst =
        match (row.ns.verdict, row.probes.verdict) with
        | Regression, _ | _, Regression -> Regression
        | Improvement, _ | _, Improvement -> Improvement
        | _ -> No_change
      in
      Tablefmt.add_row t
        [
          key_string row.key;
          Tablefmt.fmt_g row.ns.a_mean;
          Tablefmt.fmt_g row.ns.b_mean;
          Printf.sprintf "%+.1f" row.ns.delta_pct;
          Tablefmt.fmt_g row.ns.p;
          Tablefmt.fmt_g row.probes.a_mean;
          Tablefmt.fmt_g row.probes.b_mean;
          Printf.sprintf "%+.1f" row.probes.delta_pct;
          Tablefmt.fmt_g row.probes.p;
          verdict_string worst;
        ])
    r.rows;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Tablefmt.render t);
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "only in A: %s\n" (key_string k)))
    r.only_in_a;
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "only in B: %s\n" (key_string k)))
    r.only_in_b;
  Buffer.add_string buf
    (Printf.sprintf "%d configuration(s): %d regression(s), %d improvement(s).\n"
       (List.length r.rows) r.regressions r.improvements);
  Buffer.contents buf

let metric_codec =
  Codec.(
    obj (fun a_mean b_mean delta_pct p method_ disjoint verdict ->
        { a_mean; b_mean; delta_pct; p; method_; disjoint; verdict })
    |> field "a_mean" (fun m -> m.a_mean) float
    |> field "b_mean" (fun m -> m.b_mean) float
    |> field "delta_pct" (fun m -> m.delta_pct) float
    |> field "p" (fun m -> m.p) float
    |> field "method" (fun m -> m.method_)
         (enum [ ("exact", Sigtest.Exact); ("normal", Sigtest.Normal_approx) ])
    |> field "ci_disjoint" (fun m -> m.disjoint) bool
    |> field "verdict" (fun m -> m.verdict) (enum verdicts)
    |> seal)

let key_codec =
  Codec.(
    obj (fun s w d -> (s, w, d))
    |> field "structure" (fun (s, _, _) -> s) string
    |> field "workload" (fun (_, w, _) -> w) string
    |> field "domains" (fun (_, _, d) -> d) int
    |> seal)

let document =
  Codec.(
    document ~name:"lowcon-perf-diff" ~version:1
      ~summary:(fun r ->
        Printf.sprintf "%d configuration(s), %d regression(s), %d improvement(s)"
          (List.length r.rows) r.regressions r.improvements)
      (obj (fun alpha regressions improvements rows only_in_a only_in_b ->
           { rows; only_in_a; only_in_b; regressions; improvements; alpha })
      |> field "alpha" (fun r -> r.alpha) float
      |> field "regressions" (fun r -> r.regressions) int
      |> field "improvements" (fun r -> r.improvements) int
      |> field "rows" (fun r -> r.rows)
           (list
              (obj (fun key ns probes -> { key; ns; probes })
              |> field "key" (fun row -> row.key) key_codec
              |> field "ns_per_query" (fun row -> row.ns) metric_codec
              |> field "probes_per_query" (fun row -> row.probes) metric_codec
              |> seal))
      |> field "only_in_a" (fun r -> r.only_in_a) (list key_codec)
      |> field "only_in_b" (fun r -> r.only_in_b) (list key_codec)
      |> seal
      |> check (fun r ->
             let recount what stored v =
               if count r.rows v = stored then Ok ()
               else
                 Error
                   (Printf.sprintf "%s is %d but the rows show %d" what stored (count r.rows v))
             in
             Result.bind (recount "regressions" r.regressions Regression) (fun () ->
                 recount "improvements" r.improvements Improvement))))

let to_json = Codec.to_json document

(* Gauges through the real registry + exporter rather than hand-rolled
   text: the output stays consistent with every other exposition this
   repo emits (escaping, HELP/TYPE lines). *)
let prometheus r =
  let m = Metrics.create () in
  let g_reg =
    Metrics.gauge m ~help:"Configurations with a significant regression in the last perf diff"
      "perf_diff_regressions"
  in
  let g_imp =
    Metrics.gauge m ~help:"Configurations with a significant improvement in the last perf diff"
      "perf_diff_improvements"
  in
  let g_rows = Metrics.gauge m ~help:"Configurations compared" "perf_diff_configurations" in
  let g_worst =
    Metrics.gauge m ~help:"Largest ns/query delta percentage across configurations"
      "perf_diff_worst_ns_delta_pct"
  in
  let sh = Metrics.shard m ~domain:0 in
  Metrics.set_gauge sh g_reg (float_of_int r.regressions);
  Metrics.set_gauge sh g_imp (float_of_int r.improvements);
  Metrics.set_gauge sh g_rows (float_of_int (List.length r.rows));
  Metrics.set_gauge sh g_worst
    (List.fold_left (fun acc row -> Float.max acc row.ns.delta_pct) 0.0 r.rows);
  Lc_obs.Export.prometheus (Metrics.snapshot m)
