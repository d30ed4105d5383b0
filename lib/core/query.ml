module Modarith = Lc_prim.Modarith
module Poly_hash = Lc_hash.Poly_hash
module Table = Lc_cellprobe.Table
module Dict_intf = Lc_dict.Dict_intf

(* One coefficient word of [row]: every cell of the row holds a copy. *)
let coeff r (p : Params.t) row =
  Dict_intf.replica r ~base:(Layout.cell p ~row 0) ~stride:1 ~count:p.s

(* One word of group [h'x] in [row]: its copies are [m] cells apart. *)
let group_word r (p : Params.t) row h'x =
  Dict_intf.replica r ~base:(Layout.cell p ~row h'x) ~stride:p.m ~count:p.g_per_group

let query (t : Structure.t) r x =
  let p = t.params in
  if x < 0 || x >= p.universe then invalid_arg "Query.mem: key outside universe";
  (* Phase 1: hash-function words. *)
  let f_coeffs = Array.make p.d 0 and g_coeffs = Array.make p.d 0 in
  for i = 0 to p.d - 1 do
    f_coeffs.(i) <- coeff r p (Layout.f_row p i)
  done;
  for i = 0 to p.d - 1 do
    g_coeffs.(i) <- coeff r p (Layout.g_row p i)
  done;
  let f = Poly_hash.of_coeffs ~p:p.p ~m:p.s f_coeffs in
  let g = Poly_hash.of_coeffs ~p:p.p ~m:p.r g_coeffs in
  let gx = Poly_hash.eval g x in
  let z_gx =
    Dict_intf.replica r
      ~base:(Layout.cell p ~row:(Layout.z_row p) gx)
      ~stride:p.r ~count:(Layout.z_replicas p gx)
  in
  let hx = (Poly_hash.eval f x + z_gx) mod p.s in
  let h'x = hx mod p.m in
  (* Phase 2: group base address and histogram. *)
  let gbas = group_word r p (Layout.gbas_row p) h'x in
  let words = Array.make p.rho 0 in
  for w = 0 to p.rho - 1 do
    words.(w) <- group_word r p (Layout.hist_row p w) h'x
  done;
  let range = Histogram.locate p words ~k:(Layout.index_in_group p hx) in
  let len = Histogram.slot_length range in
  (* Phase 3: empty bucket means a definite negative. *)
  if len = 0 then false
  else begin
    (* Phase 4: perfect hash within the bucket. *)
    let start = gbas + Histogram.slot_offset range in
    let kstar =
      Dict_intf.replica r ~base:(Layout.cell p ~row:(Layout.phash_row p) start) ~stride:1 ~count:len
    in
    let slot = Modarith.mul p.p kstar x mod len in
    Dict_intf.point r (Layout.cell p ~row:(Layout.data_row p) (start + slot)) = x
  end

let mem (t : Structure.t) rng x =
  let probe ~step:_ j = Table.peek t.table j in
  query t (Dict_intf.Sample { probe; rng; step = 0 }) x
