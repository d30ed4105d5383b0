module Rng = Lc_prim.Rng
module Modarith = Lc_prim.Modarith
module Poly_hash = Lc_hash.Poly_hash
module Dm_family = Lc_hash.Dm_family
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec

let mem_probe (t : Structure.t) ~(probe : Lc_dict.Dict_intf.probe) rng x =
  let p = t.params in
  if x < 0 || x >= p.universe then invalid_arg "Query.mem: key outside universe";
  let step = ref 0 in
  let probe j =
    let v = probe ~step:!step j in
    incr step;
    v
  in
  let probe_rc ~row j = probe (Layout.cell p ~row j) in
  (* Phase 1: hash-function words. *)
  let f_coeffs = Array.init p.d (fun i -> probe_rc ~row:(Layout.f_row p i) (Rng.int rng p.s)) in
  let g_coeffs = Array.init p.d (fun i -> probe_rc ~row:(Layout.g_row p i) (Rng.int rng p.s)) in
  let f = Poly_hash.of_coeffs ~p:p.p ~m:p.s f_coeffs in
  let g = Poly_hash.of_coeffs ~p:p.p ~m:p.r g_coeffs in
  let gx = Poly_hash.eval g x in
  let z_gx = probe_rc ~row:(Layout.z_row p) (gx + (p.r * Rng.int rng (Layout.z_replicas p gx))) in
  let hx = (Poly_hash.eval f x + z_gx) mod p.s in
  let h'x = hx mod p.m in
  (* Phase 2: group base address and histogram. *)
  let replica () = h'x + (p.m * Rng.int rng p.g_per_group) in
  let gbas = probe_rc ~row:(Layout.gbas_row p) (replica ()) in
  let words = Array.init p.rho (fun w -> probe_rc ~row:(Layout.hist_row p w) (replica ())) in
  let range = Histogram.locate p words ~k:(Layout.index_in_group p hx) in
  let len = Histogram.slot_length range in
  (* Phase 3: empty bucket means a definite negative. *)
  if len = 0 then false
  else begin
    (* Phase 4: perfect hash within the bucket. *)
    let start = gbas + Histogram.slot_offset range in
    let kstar = probe_rc ~row:(Layout.phash_row p) (start + Rng.int rng len) in
    let slot = Modarith.mul p.p kstar x mod len in
    probe_rc ~row:(Layout.data_row p) (start + slot) = x
  end

let mem (t : Structure.t) rng x =
  mem_probe t ~probe:(fun ~step j -> Table.read t.table ~step j) rng x

let spec (t : Structure.t) x =
  let p = t.params in
  let base ~row j = Layout.cell p ~row j in
  let full_row row = Spec.Stride { base = base ~row 0; stride = 1; count = p.s } in
  let coeff_steps =
    Array.init (2 * p.d) (fun i ->
        if i < p.d then full_row (Layout.f_row p i) else full_row (Layout.g_row p (i - p.d)))
  in
  let gx = Poly_hash.eval (Dm_family.g t.top) x in
  let z_step =
    Spec.Stride
      { base = base ~row:(Layout.z_row p) gx; stride = p.r; count = Layout.z_replicas p gx }
  in
  let hx = Structure.bucket_of t x in
  let h'x = hx mod p.m in
  let group_step row =
    Spec.Stride { base = base ~row h'x; stride = p.m; count = p.g_per_group }
  in
  let gbas_step = group_step (Layout.gbas_row p) in
  let hist_steps = Array.init p.rho (fun w -> group_step (Layout.hist_row p w)) in
  let head =
    Array.concat [ coeff_steps; [| z_step; gbas_step |]; hist_steps ]
  in
  let l = t.loads.(hx) in
  if l = 0 then head
  else begin
    let len = l * l in
    let start = t.starts.(hx) in
    let kstar = t.multipliers.(hx) in
    let slot = Lc_prim.Modarith.mul p.p kstar x mod len in
    Array.append head
      [|
        Spec.Stride { base = base ~row:(Layout.phash_row p) start; stride = 1; count = len };
        Spec.Point (base ~row:(Layout.data_row p) (start + slot));
      |]
  end

let max_probes (t : Structure.t) = Params.max_probes t.params
