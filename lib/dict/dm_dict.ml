module Rng = Lc_prim.Rng
module Primes = Lc_prim.Primes
module Modarith = Lc_prim.Modarith
module Poly_hash = Lc_hash.Poly_hash
module Dm_family = Lc_hash.Dm_family
module Perfect = Lc_hash.Perfect
module Loads = Lc_hash.Loads
module Table = Lc_cellprobe.Table

type t = {
  table : Table.t;
  p : int;
  d : int;
  nb : int;  (* top-level buckets *)
  r : int;  (* displacement-vector length *)
  copies : int;  (* replicas of each coefficient word *)
  z_copies : int;  (* replicas of each z entry *)
  loads : int array;
  top_trials : int;
  load_base : int;
}

(* Cell layout: 2*d coefficient regions of [copies] cells (f's then g's),
   then the z region of r * z_copies cells laid out as z.(j mod r), then
   headers, per-bucket multipliers, slot blocks. *)
let coeff_base t idx = idx * t.copies
let z_base t = 2 * t.d * t.copies
let z_width t = t.r * t.z_copies
let header_base t = z_base t + z_width t
let kparam_base t = header_base t + t.nb
let header_off t i = header_base t + i
let kparam_off t i = kparam_base t + i

(* The max-load cap the builder enforces: c * ln n / ln ln n with a
   generous constant, floored at d so tiny instances are feasible. *)
let load_cap n d =
  let fn = float_of_int (max n 3) in
  let cap = 3.0 *. Float.log fn /. Float.log (Float.log fn) in
  max (d + 1) (int_of_float (Float.ceil cap))

let build ?(replicate = true) ?(d = 3) rng ~universe ~keys =
  if Array.length keys = 0 then invalid_arg "Dm_dict.build: empty key set";
  let seen = Hashtbl.create (Array.length keys) in
  Array.iter
    (fun x ->
      if x < 0 || x >= universe then invalid_arg "Dm_dict.build: key outside universe";
      if Hashtbl.mem seen x then invalid_arg "Dm_dict.build: duplicate key";
      Hashtbl.add seen x ())
    keys;
  let n = Array.length keys in
  let p = Primes.prime_for_universe universe in
  let nb = n in
  let r = max 1 (int_of_float (Float.ceil (Float.sqrt (float_of_int n)))) in
  let cap = load_cap n d in
  let rec search trials =
    let f = Poly_hash.create rng ~d ~p ~m:nb in
    let g = Poly_hash.create rng ~d ~p ~m:r in
    let z = Array.init r (fun _ -> Rng.int rng nb) in
    let top = Dm_family.of_parts ~f ~g ~z in
    let hash x = Dm_family.eval top x in
    let loads = Loads.loads ~hash ~buckets:nb keys in
    if Loads.max_load loads <= cap && Loads.sum_squares loads <= 4 * n then (top, loads, trials)
    else search (trials + 1)
  in
  let top, loads, top_trials = search 1 in
  let copies = if replicate then n else 1 in
  let z_copies = if replicate then max 1 ((n + r - 1) / r) else 1 in
  let slots_total = Loads.sum_squares loads in
  let load_base = n + 1 in
  let groups = Loads.bucket_keys ~hash:(Dm_family.eval top) ~buckets:nb keys in
  let header_region = (2 * d * copies) + (r * z_copies) + (2 * nb) in
  let cells = header_region + slots_total in
  let header_max = (cells * load_base) + n in
  let bits = max (Table.bits_for (max (universe - 1) (p - 1))) (Table.bits_for header_max) in
  let table = Table.create ~init:(-1) ~cells ~bits () in
  let t = { table; p; d; nb; r; copies; z_copies; loads; top_trials; load_base } in
  (* Coefficient words: f's d coefficients then g's. *)
  let write_coeffs idx0 h =
    Array.iteri
      (fun i c ->
        for k = 0 to copies - 1 do
          Table.write table (coeff_base t (idx0 + i) + k) c
        done)
      (Poly_hash.coeffs h)
  in
  write_coeffs 0 (Dm_family.f top);
  write_coeffs d (Dm_family.g top);
  let z = Dm_family.z top in
  for j = 0 to z_width t - 1 do
    Table.write table (z_base t + j) z.(j mod r)
  done;
  let next = ref header_region in
  let prng = Rng.split rng in
  Array.iteri
    (fun i bucket ->
      let l = loads.(i) in
      let off = !next in
      let multiplier =
        if l = 0 then 0
        else begin
          let ph = Perfect.find prng ~p ~keys:bucket in
          Array.iter (fun x -> Table.write table (off + Perfect.eval ph x) x) bucket;
          next := off + Perfect.size ph;
          Perfect.multiplier ph
        end
      in
      Table.write table (header_off t i) ((off * load_base) + l);
      Table.write table (kparam_off t i) multiplier)
    groups;
  t

(* One polynomial of the top-level function: coefficient words
   [idx0 .. idx0 + d - 1], each read from one of its copies into
   [words.(idx0) ..]. *)
let read_coeffs t r words idx0 =
  for i = 0 to t.d - 1 do
    words.(idx0 + i) <-
      Dict_intf.replica r ~base:(coeff_base t (idx0 + i)) ~stride:1 ~count:t.copies
  done

let query t r x =
  if x < 0 || x >= t.p then invalid_arg "Dm_dict.mem: key outside universe";
  let words = Dict_intf.scratch r (2 * t.d) in
  read_coeffs t r words 0;
  read_coeffs t r words t.d;
  let gx = Poly_hash.eval_words ~p:t.p ~m:t.r words ~pos:t.d ~d:t.d x in
  let zg = Dict_intf.replica r ~base:(z_base t + gx) ~stride:t.r ~count:t.z_copies in
  let i = (Poly_hash.eval_words ~p:t.p ~m:t.nb words ~pos:0 ~d:t.d x + zg) mod t.nb in
  let header = Dict_intf.point r (header_off t i) in
  let off = header / t.load_base and l = header mod t.load_base in
  if l = 0 then false
  else begin
    let ki = Dict_intf.point r (kparam_off t i) in
    let slot = Modarith.mul t.p ki x mod (l * l) in
    Dict_intf.point r (off + slot) = x
  end

let max_bucket_load t = Loads.max_load t.loads
let top_trials t = t.top_trials

let instance t =
  Instance.of_core
    (Dict_intf.make
       ~name:(if t.copies > 1 then "dm-replicated" else "dm")
       ~table:t.table ~max_probes:((2 * t.d) + 4) (query t))
