module Modarith = Lc_prim.Modarith
module Poly_hash = Lc_hash.Poly_hash
module Table = Lc_cellprobe.Table
module Dict_intf = Lc_dict.Dict_intf

(* Coefficient word [row] of column [c]: every column holds a copy. *)
let coeff r (p : Params.t) row c =
  Dict_intf.replica_at r ~base:(Layout.cell p ~row 0) ~stride:(Layout.column_stride p)
    ~count:p.s c

(* Word [row] of group [h'x] at its [copy]-th copy: copies are [m]
   columns apart. *)
let group_word r (p : Params.t) row h'x copy =
  Dict_intf.replica_at r ~base:(Layout.cell p ~row h'x)
    ~stride:(p.m * Layout.column_stride p) ~count:p.g_per_group copy

let query (t : Structure.t) r x =
  let p = t.params in
  if x < 0 || x >= p.universe then invalid_arg "Query.mem: key outside universe";
  let cs = Layout.column_stride p in
  (* One scratch array holds the words read so far: first f's and g's
     coefficients, then the histogram. *)
  let words = Dict_intf.scratch r (if 2 * p.d > p.rho then 2 * p.d else p.rho) in
  (* Phase 1: hash-function words, all from one column. *)
  let column = Dict_intf.draw r p.s in
  for i = 0 to p.d - 1 do
    words.(i) <- coeff r p (Layout.f_row p i) column
  done;
  for i = 0 to p.d - 1 do
    words.(p.d + i) <- coeff r p (Layout.g_row p i) column
  done;
  let gx = Poly_hash.eval_words ~p:p.p ~m:p.r words ~pos:p.d ~d:p.d x in
  let z_gx =
    Dict_intf.replica r
      ~base:(Layout.cell p ~row:(Layout.z_row p) gx)
      ~stride:(p.r * cs) ~count:(Layout.z_replicas p gx)
  in
  let hx = (Poly_hash.eval_words ~p:p.p ~m:p.s words ~pos:0 ~d:p.d x + z_gx) mod p.s in
  let h'x = hx mod p.m in
  (* Phase 2: group base address and histogram, all from one copy. *)
  let copy = Dict_intf.draw r p.g_per_group in
  let gbas = group_word r p (Layout.gbas_row p) h'x copy in
  for w = 0 to p.rho - 1 do
    words.(w) <- group_word r p (Layout.hist_row p w) h'x copy
  done;
  let range = Histogram.walk p words ~k:(Layout.index_in_group p hx) in
  let len = Histogram.slot_length range in
  (* Phase 3: empty bucket means a definite negative. *)
  if len = 0 then false
  else begin
    (* Phase 4: perfect hash within the bucket. *)
    let start = gbas + Histogram.slot_offset range in
    let kstar =
      Dict_intf.replica r ~base:(Layout.cell p ~row:(Layout.phash_row p) start) ~stride:cs
        ~count:len
    in
    let slot = Modarith.mul p.p kstar x mod len in
    Dict_intf.point r (Layout.cell p ~row:(Layout.data_row p) (start + slot)) = x
  end

let mem (t : Structure.t) rng x =
  let probe ~step:_ j = Table.peek t.table j in
  query t (Dict_intf.sampler ~probe rng) x
