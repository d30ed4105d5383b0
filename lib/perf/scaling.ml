(* Scaling artifacts: one structure swept across domain counts, fitted
   to the Universal Scalability Law. The sweep driver reuses the perf
   suite's reproducibility discipline — one seed pins keys, build and
   batches; every trial reconciles telemetry against the engine result
   — and adds the scaling observatory's own invariant: each worker's
   phase attribution must sum exactly to its batch wall time, or the
   sweep refuses to fit anything. The decoded artifact is held to the
   same standard: its summary is recomputed from its points, so a
   tampered headline fails validation instead of being believed. *)

module Codec = Lc_obs.Codec
module Window = Lc_obs.Window
module Metrics = Lc_obs.Metrics
module Engine = Lc_parallel.Engine
module Rng = Lc_prim.Rng
module Stats = Lc_analysis.Stats
module Usl = Lc_analysis.Usl

let schema_name = "lowcon-scaling"
let schema_version = 1

type gc_totals = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_words_per_query : float;
}

type point = {
  p_domains : int;
  p_trials : int;
  throughput : Artifact.ci;
  p_ns_per_query : float;
  p_phases : Engine.phase_totals;
  p_gc : gc_totals;
  p_queries : int;
}

type summary = {
  s_points : int;
  s_peak_qps : float;
  s_peak_domains : int;
  s_sigma : float option;
  s_kappa : float option;
}

type t = {
  fingerprint : Artifact.fingerprint;
  structure : string;
  workload : string;
  queries_per_domain : int;
  trials : int;
  points : point list;
  fit : Usl.fit option;
  fit_error : string option;
  summary : summary;
}

type spec = {
  structure : string;
  workload : string;
  domain_counts : int list;
  queries_per_domain : int;
  trials : int;
  n : int;
}

(* ---------------- the sweep driver ---------------- *)

let validate_spec s =
  if s.domain_counts = [] then invalid_arg "Scaling.run: empty domain_counts";
  if s.trials < 1 then invalid_arg "Scaling.run: trials must be >= 1";
  if s.queries_per_domain < 1 then invalid_arg "Scaling.run: queries_per_domain must be >= 1";
  if s.n < 1 then invalid_arg "Scaling.run: n must be >= 1";
  let rec check = function
    | [] -> ()
    | d :: _ when d < 1 -> invalid_arg "Scaling.run: domains must be >= 1"
    | d :: d' :: _ when d' <= d ->
      invalid_arg "Scaling.run: domain_counts must be ascending and distinct"
    | _ :: rest -> check rest
  in
  check s.domain_counts

(* Same universe derivation as Suite and the CLI. *)
let universe_for n = min (max (16 * n) (n * n)) (1 lsl 28)

(* Frozen seed arithmetic, disjoint from Suite's combo stream: the
   sweep's instance/workload seed and per-(domains, trial) batch seeds
   derive from --seed by fixed multipliers. *)
let combo_seed ~seed = seed + 7919
let trial_seed ~seed ~domains t = seed + (1013 * domains) + (257 * (t + 1))

let counter snap name =
  match Metrics.Snapshot.counter_value snap name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Scaling.run: counter %s missing from snapshot" name)

let run_trial ~inst ~qd ~queries_per_domain ~domains ~seed =
  let obs = Lc_obs.Obs.create () in
  let cfg = Engine.Config.make ~obs ~domains ~seed () in
  let o = Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain }) in
  let r = o.Engine.result in
  let phases =
    match o.Engine.phases with
    | Some p -> p
    | None -> failwith "Scaling.run: instrumented run carried no phase accounting"
  in
  (* The attribution invariant the artifact stands on, per worker. *)
  Array.iteri
    (fun w ph ->
      match Engine.check_phases ph with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "Scaling.run: worker %d %s" w e))
    phases;
  let snap = Lc_obs.Obs.snapshot obs in
  let q = counter snap Window.queries_counter in
  if q <> r.Engine.queries then
    failwith
      (Printf.sprintf "Scaling.run: %s %d <> result queries %d — telemetry does not reconcile"
         Window.queries_counter q r.Engine.queries);
  ( r,
    Engine.sum_phases (Array.to_list phases),
    ( counter snap Window.minor_words_counter,
      counter snap Window.promoted_words_counter,
      counter snap Window.major_words_counter ) )

let summary_of ~points ~(fit : Usl.fit option) =
  let s_peak_qps, s_peak_domains =
    List.fold_left
      (fun (bq, bd) p ->
        if p.throughput.Artifact.mean > bq then (p.throughput.Artifact.mean, p.p_domains)
        else (bq, bd))
      (neg_infinity, 0) points
  in
  {
    s_points = List.length points;
    s_peak_qps;
    s_peak_domains;
    s_sigma = Option.map (fun (f : Usl.fit) -> f.Usl.sigma) fit;
    s_kappa = Option.map (fun (f : Usl.fit) -> f.Usl.kappa) fit;
  }

let run ?(progress = fun (_ : string) -> ()) ~seed spec =
  validate_spec spec;
  let universe = universe_for spec.n in
  let rng = Rng.create (combo_seed ~seed) in
  (* One instance and one query distribution for the whole sweep:
     throughput(n) must vary only in n. *)
  let keys = Lc_workload.Keyset.random rng ~universe ~n:spec.n in
  let inst = Select.structure rng ~universe ~keys spec.structure in
  let qd = Select.workload rng ~universe ~keys spec.workload in
  let boot_rng = Rng.create (seed lxor 0x5ca1e) in
  let ci_of samples =
    let arr = Array.of_list samples in
    let lo, hi = Stats.bootstrap_ci ~rng:boot_rng arr in
    { Artifact.mean = Stats.mean arr; lo; hi; samples }
  in
  let points =
    List.map
      (fun d ->
        progress
          (Printf.sprintf "%s / %s / %d domains (%d trials)" spec.structure spec.workload d
             spec.trials);
        let outs =
          List.init spec.trials (fun t ->
              run_trial ~inst ~qd ~queries_per_domain:spec.queries_per_domain ~domains:d
                ~seed:(trial_seed ~seed ~domains:d t))
        in
        let pick f = List.map f outs in
        let p_queries = List.fold_left (fun a (r, _, _) -> a + r.Engine.queries) 0 outs in
        let p_phases = Engine.sum_phases (pick (fun (_, p, _) -> p)) in
        let gsum f = List.fold_left (fun a (_, _, g) -> a + f g) 0 outs in
        let minor_words = gsum (fun (m, _, _) -> m) in
        {
          p_domains = d;
          p_trials = spec.trials;
          throughput = ci_of (pick (fun (r, _, _) -> r.Engine.throughput));
          p_ns_per_query =
            Stats.mean
              (Array.of_list
                 (pick (fun (r, _, _) ->
                      r.Engine.seconds *. 1e9 /. float_of_int r.Engine.queries)));
          p_phases;
          p_gc =
            {
              minor_words;
              promoted_words = gsum (fun (_, p, _) -> p);
              major_words = gsum (fun (_, _, m) -> m);
              minor_words_per_query = float_of_int minor_words /. float_of_int p_queries;
            };
          p_queries;
        })
      spec.domain_counts
  in
  let fit, fit_error =
    match Usl.fit (List.map (fun p -> (p.p_domains, p.throughput.Artifact.mean)) points) with
    | Ok f -> (Some f, None)
    | Error e -> (None, Some e)
  in
  {
    fingerprint = Artifact.fingerprint ~seed;
    structure = spec.structure;
    workload = spec.workload;
    queries_per_domain = spec.queries_per_domain;
    trials = spec.trials;
    points;
    fit;
    fit_error;
    summary = summary_of ~points ~fit;
  }

(* ---------------- the document ---------------- *)

let gc_codec =
  Codec.(
    obj (fun minor_words promoted_words major_words minor_words_per_query ->
        { minor_words; promoted_words; major_words; minor_words_per_query })
    |> field "minor_words" (fun g -> g.minor_words) int
    |> field "promoted_words" (fun g -> g.promoted_words) int
    |> field "major_words" (fun g -> g.major_words) int
    |> field "minor_words_per_query" (fun g -> g.minor_words_per_query) float
    |> seal)

let point_codec =
  Codec.(
    obj (fun p_domains p_trials throughput p_ns_per_query p_phases p_gc p_queries ->
        { p_domains; p_trials; throughput; p_ns_per_query; p_phases; p_gc; p_queries })
    |> field "domains" (fun p -> p.p_domains) int
    |> field "trials" (fun p -> p.p_trials) int
    |> field "throughput" (fun p -> p.throughput) Artifact.ci_codec
    |> field "ns_per_query" (fun p -> p.p_ns_per_query) float
    |> field "phases" (fun p -> p.p_phases) Engine.phases_codec
    |> field "gc" (fun p -> p.p_gc) gc_codec
    |> field "queries" (fun p -> p.p_queries) int
    |> seal
    |> check (fun p ->
           if p.p_domains < 1 then Error "domains must be >= 1"
           else if p.p_trials < 1 then Error "trials must be >= 1"
           else Ok ()))

let fit_codec =
  Codec.(
    obj (fun lambda sigma kappa r2 -> { Usl.lambda; sigma; kappa; r2 })
    |> field "lambda" (fun f -> f.Usl.lambda) float
    |> field "sigma" (fun f -> f.Usl.sigma) float
    |> field "kappa" (fun f -> f.Usl.kappa) float
    |> field "r2" (fun f -> f.Usl.r2) float
    |> seal
    |> check (fun f ->
           if f.Usl.lambda <= 0.0 then Error "fit lambda must be positive"
           else if f.Usl.sigma < 0.0 || f.Usl.kappa < 0.0 then
             Error "fit sigma/kappa must be non-negative"
           else Ok ()))

let summary_codec =
  Codec.(
    obj (fun s_points s_peak_qps s_peak_domains s_sigma s_kappa ->
        { s_points; s_peak_qps; s_peak_domains; s_sigma; s_kappa })
    |> field "points" (fun s -> s.s_points) int
    |> field "peak_qps" (fun s -> s.s_peak_qps) float
    |> field "peak_domains" (fun s -> s.s_peak_domains) int
    |> opt "sigma" (fun s -> s.s_sigma) float
    |> opt "kappa" (fun s -> s.s_kappa) float
    |> seal)

(* Tamper detection: the summary is derived data, so a decoded document
   must agree with a recomputation from its own points. Float fields get
   a tiny relative tolerance for the JSON round-trip. *)
let close a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let close_opt a b =
  match (a, b) with Some a, Some b -> close a b | None, None -> true | _ -> false

let check_document (t : t) =
  let rec ordered = function
    | a :: (b :: _ as rest) -> b.p_domains > a.p_domains && ordered rest
    | _ -> true
  in
  let computed = summary_of ~points:t.points ~fit:t.fit in
  let stored = t.summary in
  if t.points = [] then Error "points: must be non-empty"
  else if not (ordered t.points) then Error "points: domain counts must be ascending and distinct"
  else
    match (t.fit, t.fit_error) with
    | Some _, Some _ -> Error "both fit and fit_error present — exactly one is allowed"
    | None, None -> Error "neither fit nor fit_error present — exactly one is required"
    | _ ->
      if
        stored.s_points <> computed.s_points
        || stored.s_peak_domains <> computed.s_peak_domains
        || not (close stored.s_peak_qps computed.s_peak_qps)
        || not (close_opt stored.s_sigma computed.s_sigma)
        || not (close_opt stored.s_kappa computed.s_kappa)
      then Error "summary does not match a recomputation from points — tampered or corrupt"
      else Ok ()

(* No local open here: inside [Codec.( )] the name [t] is [Codec.t],
   and [spec] shares this record's labels. *)
let document =
  Codec.document ~name:schema_name ~version:schema_version
    ~summary:(fun (t : t) ->
      Printf.sprintf "%s/%s, %d point(s), %s" t.structure t.workload (List.length t.points)
        (match t.fit with
        | Some f -> Printf.sprintf "sigma %.4f kappa %.6f" f.Usl.sigma f.Usl.kappa
        | None -> "no fit"))
    (Codec.obj
       (fun fingerprint structure workload queries_per_domain trials points fit fit_error summary ->
         { fingerprint; structure; workload; queries_per_domain; trials; points; fit; fit_error;
           summary })
    |> Codec.field "fingerprint" (fun (t : t) -> t.fingerprint) Artifact.fingerprint_codec
    |> Codec.field "structure" (fun (t : t) -> t.structure) Codec.string
    |> Codec.field "workload" (fun (t : t) -> t.workload) Codec.string
    |> Codec.field "queries_per_domain" (fun (t : t) -> t.queries_per_domain) Codec.int
    |> Codec.field "trials" (fun (t : t) -> t.trials) Codec.int
    |> Codec.field "points" (fun (t : t) -> t.points) (Codec.list point_codec)
    |> Codec.opt "fit" (fun (t : t) -> t.fit) fit_codec
    |> Codec.opt "fit_error" (fun (t : t) -> t.fit_error) Codec.string
    |> Codec.field "summary" (fun (t : t) -> t.summary) summary_codec
    |> Codec.seal
    |> Codec.check check_document)

let to_string = Codec.to_string_strict document
let write = Codec.write document
let of_string = Codec.of_string document
let load = Codec.load document

(* ---------------- rendering ---------------- *)

let render (t : t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "scaling observatory: %s / %s (%d trials x %d queries/domain)\n" t.structure
       t.workload t.trials t.queries_per_domain);
  Buffer.add_string b
    (Printf.sprintf "%8s %12s %10s %7s %7s %8s %6s %7s %7s %9s\n" "domains" "qps" "ns/query"
       "probe%" "tally%" "publish%" "pin%" "other%" "idle%" "alloc/q");
  List.iter
    (fun p ->
      let wall = Engine.phase_ns p.p_phases Engine.Wall in
      let share phase =
        if wall = 0 then 0.0
        else 100.0 *. float_of_int (Engine.phase_ns p.p_phases phase) /. float_of_int wall
      in
      Buffer.add_string b
        (Printf.sprintf "%8d %12.0f %10.1f %7.1f %7.1f %8.1f %6.1f %7.1f %7.1f %9.2f\n"
           p.p_domains p.throughput.Artifact.mean p.p_ns_per_query (share Engine.Probe)
           (share Engine.Tally) (share Engine.Publish) (share Engine.Pin) (share Engine.Other)
           (share Engine.Idle) p.p_gc.minor_words_per_query))
    t.points;
  (match (t.fit, t.fit_error) with
  | Some f, _ ->
    Buffer.add_string b
      (Printf.sprintf "USL fit: lambda=%.0f qps/domain  sigma=%.4f  kappa=%.6f  r2=%.4f\n"
         f.Usl.lambda f.Usl.sigma f.Usl.kappa f.Usl.r2);
    (match Usl.peak f with
    | Some n -> Buffer.add_string b (Printf.sprintf "predicted peak near %.1f domains\n" n)
    | None -> Buffer.add_string b "fitted curve is monotone (no interior peak)\n")
  | None, Some e -> Buffer.add_string b (Printf.sprintf "USL fit rejected: %s\n" e)
  | None, None -> ());
  Buffer.contents b
