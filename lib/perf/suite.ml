(* The perf suite: run the serving engine over a grid of
   structure x workload x domain-count configurations and distil each
   into an Artifact entry.

   Reproducibility discipline: one --seed pins everything. Each
   configuration derives a combo seed (keys, structure build, workload
   sampling), each trial a trial seed (engine batches), and the
   bootstrap its own; nothing reads the wall clock except the timings
   being measured and the fingerprint. Every trial runs against a fresh
   Monitor and a fresh Obs handle, and its counters are reconciled
   exactly against the engine's result totals before the trial is
   believed — an artifact whose telemetry disagrees with its ground
   truth must never be written.

   The mixed axis (rw_workloads x rw_domain_counts) serves the
   epoch-published dynamic dictionary under a read-write op stream
   through the same discipline: reader-side telemetry must reconcile
   with the engine result AND with the structure's own per-cell tallies
   (live + retired + drained), or the trial refuses to exist. Mixed
   combos are enumerated after the static ones, so adding the axis
   never re-seeds an existing configuration. *)

module Rng = Lc_prim.Rng
module Engine = Lc_parallel.Engine
module Epoch = Lc_dynamic.Epoch
module Opstream = Lc_workload.Opstream
module Metrics = Lc_obs.Metrics
module Window = Lc_obs.Window
module Stats = Lc_analysis.Stats

type spec = {
  structures : string list;
  workloads : string list;
  domain_counts : int list;
  queries_per_domain : int;
  trials : int;
  n : int;
  rw_workloads : string list;
  rw_domain_counts : int list;
  ops_per_domain : int;
}

let default =
  {
    structures = [ "lc"; "fks-norepl"; "binary" ];
    workloads = [ "pos"; "zipf:1.0" ];
    domain_counts = [ 1; 2 ];
    queries_per_domain = 2000;
    trials = 5;
    n = 512;
    rw_workloads = [ "rw:0.90" ];
    rw_domain_counts = [ 1; 2; 3; 4 ];
    ops_per_domain = 2000;
  }

let quick =
  {
    structures = [ "lc"; "fks-norepl" ];
    workloads = [ "pos" ];
    domain_counts = [ 2 ];
    queries_per_domain = 500;
    trials = 3;
    n = 256;
    rw_workloads = [ "rw:0.90" ];
    rw_domain_counts = [ 2 ];
    ops_per_domain = 500;
  }

let validate_spec s =
  if (s.structures = [] || s.workloads = [] || s.domain_counts = []) && s.rw_workloads = []
  then invalid_arg "Suite.run: empty configuration axis";
  if s.trials < 1 then invalid_arg "Suite.run: trials must be >= 1";
  if s.queries_per_domain < 1 then invalid_arg "Suite.run: queries_per_domain must be >= 1";
  if s.n < 1 then invalid_arg "Suite.run: n must be >= 1";
  List.iter (fun d -> if d < 1 then invalid_arg "Suite.run: domains must be >= 1") s.domain_counts;
  if s.rw_workloads <> [] then begin
    if s.rw_domain_counts = [] then
      invalid_arg "Suite.run: rw_workloads set but rw_domain_counts empty";
    if s.ops_per_domain < 1 then invalid_arg "Suite.run: ops_per_domain must be >= 1";
    List.iter
      (fun d -> if d < 1 then invalid_arg "Suite.run: domains must be >= 1")
      s.rw_domain_counts
  end

let universe_for n = min (max (16 * n) (n * n)) (1 lsl 28)

(* Distinct odd multipliers keep combo and trial streams disjoint for
   any base seed; exact values are arbitrary but frozen — changing them
   changes every committed artifact. *)
let combo_seed ~seed i = seed + (1009 * (i + 1))
let trial_seed ~combo t = combo + (131 * (t + 1))

let reconcile ~(r : Engine.result) snap =
  let counter name =
    match Metrics.Snapshot.counter_value snap name with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Suite.run: counter %s missing from snapshot" name)
  in
  let q = counter Window.queries_counter and p = counter Window.probes_counter in
  if q <> r.queries then
    failwith
      (Printf.sprintf "Suite.run: %s %d <> result queries %d — telemetry does not reconcile"
         Window.queries_counter q r.queries);
  if p <> r.total_probes then
    failwith
      (Printf.sprintf "Suite.run: %s %d <> result probes %d — telemetry does not reconcile"
         Window.probes_counter p r.total_probes)

type trial_out = {
  ns_per_query : float;
  probes_per_query : float;
  p50 : float;
  p99 : float;
  ratio : float;
  t_queries : int;
  t_probes : int;
  t_ns_per_update : float option;  (* builder wall ns / update ops; dynamic trials only *)
  t_write_amp : float option;  (* cells written / keys inserted; dynamic trials only *)
  t_minor_wpq : float;  (* minor words allocated per query (per-domain counters) *)
  t_major_colls : int;  (* major collection slices during the trial, process-wide *)
}

let minor_words_per_query ~(r : Engine.result) snap =
  match Metrics.Snapshot.counter_value snap Window.minor_words_counter with
  | Some w -> float_of_int w /. float_of_int r.Engine.queries
  | None -> 0.0

let out_of_windowed ~(r : Engine.result) ~cells ~major_colls snap =
  let p50, p99 =
    match Metrics.Snapshot.find_hist snap Window.latency_histogram with
    | Some h -> (Metrics.Snapshot.quantile h 0.5, Metrics.Snapshot.quantile h 0.99)
    | None -> (0.0, 0.0)
  in
  let ratio =
    match cells with
    | None -> 0.0
    | Some cells -> (
      match Lc_obs.Heavy.max_guaranteed cells with
      | None -> 0.0
      | Some e ->
        if r.Engine.flat_bound <= 0.0 then 0.0
        else float_of_int (e.Lc_obs.Heavy.count - e.Lc_obs.Heavy.err) /. r.Engine.flat_bound)
  in
  {
    ns_per_query = r.Engine.seconds *. 1e9 /. float_of_int r.Engine.queries;
    probes_per_query = float_of_int r.Engine.total_probes /. float_of_int r.Engine.queries;
    p50;
    p99;
    ratio;
    t_queries = r.Engine.queries;
    t_probes = r.Engine.total_probes;
    t_ns_per_update = None;
    t_write_amp = None;
    t_minor_wpq = minor_words_per_query ~r snap;
    t_major_colls = major_colls;
  }

let run_trial ~inst ~qd ~domains ~queries_per_domain ~seed =
  let mon = Engine.Monitor.create ~domains inst in
  let cfg = Engine.Config.make ~monitor:mon ~domains ~seed () in
  let colls0 = (Gc.quick_stat ()).Gc.major_collections in
  let o = Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain }) in
  let major_colls = (Gc.quick_stat ()).Gc.major_collections - colls0 in
  let r = o.Engine.result in
  let snap = Lc_obs.Obs.snapshot (Engine.Monitor.obs mon) in
  reconcile ~r snap;
  out_of_windowed ~r ~cells:o.Engine.cells ~major_colls snap

(* One mixed read-write trial: fresh epoch-published dictionary
   preloaded with the combo's keys, a generated op stream whose queries
   draw from the same pool, served by [domains] readers plus the
   builder. The monitor's flat bound is budgeted from the preloaded
   snapshot. *)
let run_dynamic_trial ~universe ~keys ~read_fraction ~domains ~ops_per_domain ~seed =
  let rng = Rng.create seed in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (fun k -> Epoch.insert epoch k) keys;
  Epoch.publish epoch;
  let snap0 = Epoch.current epoch in
  let working_set = min universe (2 * Array.length keys) in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction)
      ~initial_pool:keys rng ~universe ~length:(domains * ops_per_domain) ~working_set
  in
  let mon =
    Engine.Monitor.create_for ~domains ~space:(Epoch.space snap0)
      ~max_probes:(Epoch.max_probes snap0) ()
  in
  let cfg = Engine.Config.make ~monitor:mon ~domains ~seed () in
  let colls0 = (Gc.quick_stat ()).Gc.major_collections in
  let o = Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 64 }) in
  let major_colls = (Gc.quick_stat ()).Gc.major_collections - colls0 in
  let r = o.Engine.result in
  let snap = Lc_obs.Obs.snapshot (Engine.Monitor.obs mon) in
  reconcile ~r snap;
  (* Second reconciliation, unique to the dynamic mode: the reader-side
     probe total must equal the structure-side per-cell tallies (live
     levels + retired + drained) — the epoch accounting invariant. *)
  let structure_probes = Epoch.total_probes epoch in
  if structure_probes <> r.Engine.total_probes then
    failwith
      (Printf.sprintf
         "Suite.run: epoch per-cell tallies %d <> reader probes %d — epoch accounting does \
          not reconcile" structure_probes r.Engine.total_probes);
  let base = out_of_windowed ~r ~cells:o.Engine.cells ~major_colls snap in
  match o.Engine.updates with
  | None -> base
  | Some u ->
    let update_ops = u.Engine.inserts + u.Engine.deletes in
    {
      base with
      t_ns_per_update =
        (if update_ops = 0 then None
         else Some (float_of_int u.Engine.builder_ns /. float_of_int update_ops));
      t_write_amp = Some u.Engine.write_amp;
    }

let ci_of ~rng samples =
  let arr = Array.of_list samples in
  let lo, hi = Stats.bootstrap_ci ~rng arr in
  { Artifact.mean = Stats.mean arr; lo; hi; samples }

(* A grid cell: the static (instance x qdist) kind or the mixed
   read-write kind. Static combos come first so the mixed axis extends
   the combo-seed sequence instead of renumbering it. *)
type combo =
  | Static_combo of string * string * int
  | Mixed_combo of string * float * int  (* spec string, read fraction, domains *)

let run ?(progress = fun (_ : string) -> ()) ~seed spec =
  validate_spec spec;
  let universe = universe_for spec.n in
  let boot_rng = Rng.create (seed lxor 0x5eed) in
  let static_combos =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun w -> List.map (fun d -> Static_combo (s, w, d)) spec.domain_counts)
          spec.workloads)
      spec.structures
  in
  let mixed_combos =
    List.concat_map
      (fun w ->
        match Select.rw_fraction w with
        | Some f -> List.map (fun d -> Mixed_combo (w, f, d)) spec.rw_domain_counts
        | None ->
          failwith (Printf.sprintf "Suite.run: rw workload %S is not of the form rw:F" w))
      spec.rw_workloads
  in
  let combos = static_combos @ mixed_combos in
  let entries =
    List.mapi
      (fun i combo ->
        let cseed = combo_seed ~seed i in
        let rng = Rng.create cseed in
        let keys = Lc_workload.Keyset.random rng ~universe ~n:spec.n in
        match combo with
        | Static_combo (structure, workload, domains) ->
          progress
            (Printf.sprintf "%s / %s / %d domains (%d trials)" structure workload domains
               spec.trials);
          let inst = Select.structure rng ~universe ~keys structure in
          let qd = Select.workload rng ~universe ~keys workload in
          let outs =
            List.init spec.trials (fun t ->
                run_trial ~inst ~qd ~domains ~queries_per_domain:spec.queries_per_domain
                  ~seed:(trial_seed ~combo:cseed t))
          in
          let pick f = List.map f outs in
          {
            Artifact.structure;
            workload;
            domains;
            queries_per_domain = spec.queries_per_domain;
            trials = spec.trials;
            ns_per_query = ci_of ~rng:boot_rng (pick (fun o -> o.ns_per_query));
            probes_per_query = ci_of ~rng:boot_rng (pick (fun o -> o.probes_per_query));
            p50_ns = Stats.median (Array.of_list (pick (fun o -> o.p50)));
            p99_ns = Stats.median (Array.of_list (pick (fun o -> o.p99)));
            hotspot_ratio = Stats.median (Array.of_list (pick (fun o -> o.ratio)));
            queries = List.fold_left (fun a o -> a + o.t_queries) 0 outs;
            probes = List.fold_left (fun a o -> a + o.t_probes) 0 outs;
            ns_per_update = None;
            write_amp = None;
            minor_words_per_query =
              Some (Stats.mean (Array.of_list (pick (fun o -> o.t_minor_wpq))));
            major_collections = Some (List.fold_left (fun a o -> a + o.t_major_colls) 0 outs);
          }
        | Mixed_combo (workload, read_fraction, domains) ->
          progress
            (Printf.sprintf "%s / %s / %d domains (%d trials)" Select.dynamic_name workload
               domains spec.trials);
          let outs =
            List.init spec.trials (fun t ->
                run_dynamic_trial ~universe ~keys ~read_fraction ~domains
                  ~ops_per_domain:spec.ops_per_domain
                  ~seed:(trial_seed ~combo:cseed t))
          in
          let pick f = List.map f outs in
          {
            Artifact.structure = Select.dynamic_name;
            workload;
            domains;
            queries_per_domain = spec.ops_per_domain;
            trials = spec.trials;
            ns_per_query = ci_of ~rng:boot_rng (pick (fun o -> o.ns_per_query));
            probes_per_query = ci_of ~rng:boot_rng (pick (fun o -> o.probes_per_query));
            p50_ns = Stats.median (Array.of_list (pick (fun o -> o.p50)));
            p99_ns = Stats.median (Array.of_list (pick (fun o -> o.p99)));
            hotspot_ratio = Stats.median (Array.of_list (pick (fun o -> o.ratio)));
            queries = List.fold_left (fun a o -> a + o.t_queries) 0 outs;
            probes = List.fold_left (fun a o -> a + o.t_probes) 0 outs;
            ns_per_update =
              (match List.filter_map (fun o -> o.t_ns_per_update) outs with
              | [] -> None
              | samples -> Some (ci_of ~rng:boot_rng samples));
            write_amp =
              (match List.filter_map (fun o -> o.t_write_amp) outs with
              | [] -> None
              | samples -> Some (Stats.mean (Array.of_list samples)));
            minor_words_per_query =
              Some (Stats.mean (Array.of_list (pick (fun o -> o.t_minor_wpq))));
            major_collections = Some (List.fold_left (fun a o -> a + o.t_major_colls) 0 outs);
          })
      combos
  in
  { Artifact.fingerprint = Artifact.fingerprint ~seed; entries }
