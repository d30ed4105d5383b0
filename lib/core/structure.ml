module Rng = Lc_prim.Rng
module Poly_hash = Lc_hash.Poly_hash
module Dm_family = Lc_hash.Dm_family
module Perfect = Lc_hash.Perfect
module Loads = Lc_hash.Loads
module Table = Lc_cellprobe.Table

exception Build_failed of { stage : string; trials : int; detail : string }

let () =
  Printexc.register_printer (function
    | Build_failed { stage; trials; detail } ->
      Some
        (Printf.sprintf "Lc_core.Structure.Build_failed(stage = %s, trials = %d): %s" stage
           trials detail)
    | _ -> None)

type t = {
  params : Params.t;
  table : Table.t;
  top : Dm_family.t;
  loads : int array;
  gbas : int array;
  starts : int array;
  multipliers : int array;
  trials : int;
  perfect_trials_total : int;
  keys : int array;
}

(* The three sub-checks of P(S), in the order Section 2.2 states them;
   the names are the stage vocabulary [Build_failed] and the build-stage
   spans share: the g-bucket cap, the group cap on h' = h mod m, and the
   FKS sum-of-squares condition on h. *)
type ps_verdict = Ps_ok | Ps_reject_g | Ps_reject_group | Ps_reject_fks

let property_p_verdict (p : Params.t) ~g ~h ~keys =
  if Dm_family.range h <> p.s then invalid_arg "Structure.property_p: h must map to [s]";
  let g_loads = Loads.loads ~hash:(Poly_hash.eval g) ~buckets:p.r keys in
  if Loads.max_load g_loads > p.cap_g then Ps_reject_g
  else begin
    let h' = Dm_family.reduce h p.m in
    let group_loads = Loads.loads ~hash:(Dm_family.eval h') ~buckets:p.m keys in
    if Loads.max_load group_loads > p.cap_group then Ps_reject_group
    else begin
      let bucket_loads = Loads.loads ~hash:(Dm_family.eval h) ~buckets:p.s keys in
      if Loads.sum_squares bucket_loads > p.s then Ps_reject_fks else Ps_ok
    end
  end

let property_p p ~g ~h ~keys = property_p_verdict p ~g ~h ~keys = Ps_ok

let check_keys (p : Params.t) keys =
  if Array.length keys <> p.n then
    invalid_arg
      (Printf.sprintf "Structure.build: %d keys but params.n = %d" (Array.length keys) p.n);
  let seen = Hashtbl.create (2 * p.n) in
  Array.iter
    (fun x ->
      if x < 0 || x >= p.universe then invalid_arg "Structure.build: key outside universe";
      if Hashtbl.mem seen x then invalid_arg "Structure.build: duplicate key";
      Hashtbl.add seen x ())
    keys

let sample_hashes rng (p : Params.t) =
  let f = Poly_hash.create rng ~d:p.d ~p:p.p ~m:p.s in
  let g = Poly_hash.create rng ~d:p.d ~p:p.p ~m:p.r in
  let z = Array.init p.r (fun _ -> Rng.int rng p.s) in
  (g, Dm_family.of_parts ~f ~g ~z)

(* Build-stage telemetry: a span per construction stage on the
   orchestrator timeline (tid 0, shard 0) plus counters for the P(S)
   rejection reasons and the per-bucket perfect-hash trials. [None]
   means zero telemetry work, as everywhere else. *)
type build_obs = {
  tl : Lc_obs.Span.timeline;
  shard : Lc_obs.Metrics.shard;
  trials_c : Lc_obs.Metrics.counter;
  reject_g_c : Lc_obs.Metrics.counter;
  reject_group_c : Lc_obs.Metrics.counter;
  reject_fks_c : Lc_obs.Metrics.counter;
  perfect_c : Lc_obs.Metrics.counter;
}

let build_obs_of (o : Lc_obs.Obs.t) =
  let c help name = Lc_obs.Metrics.counter o.metrics ~help name in
  let trials_c = c "P(S) rejection-sampling trials" "build_ps_trials_total" in
  let reject_g_c = c "P(S) rejections: g-bucket cap exceeded" "build_ps_rejects_g_total" in
  let reject_group_c =
    c "P(S) rejections: group cap on h' exceeded" "build_ps_rejects_group_total"
  in
  let reject_fks_c =
    c "P(S) rejections: FKS sum-of-squares condition failed" "build_ps_rejects_fks_total"
  in
  let perfect_c = c "Per-bucket perfect-hash trials" "build_perfect_trials_total" in
  {
    tl = Lc_obs.Obs.timeline o ~tid:0;
    shard = Lc_obs.Obs.shard o ~domain:0;
    trials_c;
    reject_g_c;
    reject_group_c;
    reject_fks_c;
    perfect_c;
  }

let build ?(max_trials = 10_000) ?obs rng (p : Params.t) ~keys =
  check_keys p keys;
  let bo = Option.map build_obs_of obs in
  let span name f =
    match bo with None -> f () | Some bo -> Lc_obs.Span.with_span bo.tl name f
  in
  span "build" @@ fun () ->
  (* Rejection-sample (g, h', h) until P(S). *)
  let rec search trials =
    if trials > max_trials then
      raise
        (Build_failed
           {
             stage = "P(S) rejection sampling";
             trials = max_trials;
             detail =
               Printf.sprintf
                 "property P(S) failed %d consecutive trials (n = %d, s = %d, r = %d, m = %d); \
                  raise max_trials or revisit the parameters"
                 max_trials p.n p.s p.r p.m;
           });
    let g, h = sample_hashes rng p in
    match bo with
    | None -> if property_p p ~g ~h ~keys then (h, trials) else search (trials + 1)
    | Some bo -> (
      Lc_obs.Metrics.incr bo.shard bo.trials_c 1;
      match property_p_verdict p ~g ~h ~keys with
      | Ps_ok -> (h, trials)
      | Ps_reject_g ->
        Lc_obs.Metrics.incr bo.shard bo.reject_g_c 1;
        Lc_obs.Span.instant bo.tl "reject:g-cap";
        search (trials + 1)
      | Ps_reject_group ->
        Lc_obs.Metrics.incr bo.shard bo.reject_group_c 1;
        Lc_obs.Span.instant bo.tl "reject:h'-group-cap";
        search (trials + 1)
      | Ps_reject_fks ->
        Lc_obs.Metrics.incr bo.shard bo.reject_fks_c 1;
        Lc_obs.Span.instant bo.tl "reject:fks-sum-squares";
        search (trials + 1))
  in
  let top, trials = span "P(S)-sampling" (fun () -> search 1) in
  let hash x = Dm_family.eval top x in
  let buckets = Loads.bucket_keys ~hash ~buckets:p.s keys in
  let loads = Array.map Array.length buckets in
  (* Group base addresses, cumulative over groups (paper's GBAS). *)
  let group_size i =
    let acc = ref 0 in
    for k = 0 to p.g_per_group - 1 do
      let l = loads.(Layout.bucket_of_group_index p ~group:i k) in
      acc := !acc + (l * l)
    done;
    !acc
  in
  let gbas = Array.make p.m 0 in
  let starts = Array.make p.s 0 in
  span "layout-gbas" (fun () ->
      for i = 1 to p.m - 1 do
        gbas.(i) <- gbas.(i - 1) + group_size (i - 1)
      done;
      (* Absolute slot start per bucket. *)
      for i = 0 to p.m - 1 do
        let off = ref gbas.(i) in
        for k = 0 to p.g_per_group - 1 do
          let bk = Layout.bucket_of_group_index p ~group:i k in
          starts.(bk) <- !off;
          off := !off + (loads.(bk) * loads.(bk))
        done
      done);
  (* Per-bucket perfect hashing. *)
  let multipliers = Array.make p.s 0 in
  let perfect_trials_total = ref 0 in
  span "perfect-hashing" (fun () ->
      Array.iteri
        (fun bk bucket ->
          if Array.length bucket > 0 then begin
            let ph = Perfect.find rng ~p:p.p ~keys:bucket in
            multipliers.(bk) <- Perfect.multiplier ph;
            perfect_trials_total := !perfect_trials_total + Perfect.trials ph
          end)
        buckets;
      match bo with
      | Some bo -> Lc_obs.Metrics.incr bo.shard bo.perfect_c !perfect_trials_total
      | None -> ());
  (* Write the table one whole column at a time, so that the writes
     follow the column-major layout. *)
  span "write-rows" @@ fun () ->
  let table = Table.create ~init:(-1) ~cells:(Params.total_cells p) ~bits:p.cell_bits () in
  (* Histograms: encode each group's loads once, then replicate. *)
  let group_words =
    Array.init p.m (fun i ->
        let gl =
          Array.init p.g_per_group (fun k -> loads.(Layout.bucket_of_group_index p ~group:i k))
        in
        Histogram.encode p ~loads:gl)
  in
  (* The perfect-hash word and the key of every column; -1 in columns
     no bucket's slot block uses. *)
  let phash = Array.make p.s (-1) and data = Array.make p.s (-1) in
  Array.iteri
    (fun bk bucket ->
      let l = loads.(bk) in
      if l > 0 then begin
        let sz = l * l in
        Array.fill phash starts.(bk) sz multipliers.(bk);
        let ph = Perfect.of_multiplier ~p:p.p ~size:sz multipliers.(bk) in
        Array.iter (fun x -> data.(starts.(bk) + Perfect.eval ph x) <- x) bucket
      end)
    buckets;
  (* One column, its coefficient rows set once for all columns. *)
  let column = Array.make (Params.rows p) (-1) in
  let f_coeffs = Poly_hash.coeffs (Dm_family.f top) in
  let g_coeffs = Poly_hash.coeffs (Dm_family.g top) in
  for i = 0 to p.d - 1 do
    column.(Layout.f_row p i) <- f_coeffs.(i);
    column.(Layout.g_row p i) <- g_coeffs.(i)
  done;
  let z = Dm_family.z top in
  for j = 0 to p.s - 1 do
    column.(Layout.z_row p) <- z.(j mod p.r);
    column.(Layout.gbas_row p) <- gbas.(j mod p.m);
    let words = group_words.(j mod p.m) in
    for w = 0 to p.rho - 1 do
      column.(Layout.hist_row p w) <- words.(w)
    done;
    column.(Layout.phash_row p) <- phash.(j);
    column.(Layout.data_row p) <- data.(j);
    for row = 0 to Params.rows p - 1 do
      Table.write table (Layout.cell p ~row j) column.(row)
    done
  done;
  {
    params = p;
    table;
    top;
    loads;
    gbas;
    starts;
    multipliers;
    trials;
    perfect_trials_total = !perfect_trials_total;
    keys = Array.copy keys;
  }
