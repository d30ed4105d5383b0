module Rng = Lc_prim.Rng
module Primes = Lc_prim.Primes
module Modarith = Lc_prim.Modarith
module Perfect = Lc_hash.Perfect
module Loads = Lc_hash.Loads
module Table = Lc_cellprobe.Table

type t = {
  table : Table.t;
  p : int;
  nb : int;  (* top-level buckets *)
  copies : int;  (* replicas of the k_top cell *)
  loads : int array;
  top_trials : int;
  load_base : int;  (* header packing radix *)
}

let header_off t i = t.copies + i
let kparam_off t i = t.copies + t.nb + i

let check_keys ~universe keys =
  if Array.length keys = 0 then invalid_arg "Fks.build: empty key set";
  let seen = Hashtbl.create (Array.length keys) in
  Array.iter
    (fun x ->
      if x < 0 || x >= universe then invalid_arg "Fks.build: key outside universe";
      if Hashtbl.mem seen x then invalid_arg "Fks.build: duplicate key";
      Hashtbl.add seen x ())
    keys

(* Assemble the table for a fixed, already-accepted top-level multiplier. *)
let assemble ~replicate ~universe ~p ~k_top ~top_trials keys =
  let n = Array.length keys in
  let nb = n in
  let hash x = Modarith.mul p k_top x mod nb in
  let groups = Loads.bucket_keys ~hash ~buckets:nb keys in
  let loads = Array.map Array.length groups in
  let copies = if replicate then n else 1 in
  let slots_total = Loads.sum_squares loads in
  let cells = copies + (2 * nb) + slots_total in
  let load_base = n + 1 in
  let header_max = (cells * load_base) + n in
  let bits = max (Table.bits_for (max (universe - 1) (p - 1))) (Table.bits_for header_max) in
  let table = Table.create ~init:(-1) ~cells ~bits () in
  for j = 0 to copies - 1 do
    Table.write table j k_top
  done;
  let next = ref (copies + (2 * nb)) in
  (* A local deterministic rng for the per-bucket perfect hashes keeps
     assemble's signature free of the caller's rng; seeded from k_top so
     rebuilds are reproducible. *)
  let rng = Rng.create (k_top + (7919 * top_trials)) in
  Array.iteri
    (fun i bucket ->
      let l = loads.(i) in
      let off = !next in
      let multiplier =
        if l = 0 then 0
        else begin
          let ph = Perfect.find rng ~p ~keys:bucket in
          Array.iter (fun x -> Table.write table (off + Perfect.eval ph x) x) bucket;
          next := off + Perfect.size ph;
          Perfect.multiplier ph
        end
      in
      Table.write table (copies + i) ((off * load_base) + l);
      Table.write table (copies + nb + i) multiplier)
    groups;
  { table; p; nb; copies; loads; top_trials; load_base }

let build ?(replicate = true) rng ~universe ~keys =
  check_keys ~universe keys;
  let n = Array.length keys in
  let p = Primes.prime_for_universe universe in
  let rec search trials =
    let k_top = 1 + Rng.int rng (p - 1) in
    let hash x = Modarith.mul p k_top x mod n in
    let loads = Loads.loads ~hash ~buckets:n keys in
    if Loads.sum_squares loads <= 4 * n then (k_top, trials)
    else search (trials + 1)
  in
  let k_top, top_trials = search 1 in
  assemble ~replicate ~universe ~p ~k_top ~top_trials keys

let build_planted ?(replicate = true) rng ~universe ~n ~heavy =
  if n < 2 then invalid_arg "Fks.build_planted: n must be >= 2";
  if heavy < 1 || heavy * heavy > 2 * n then
    invalid_arg "Fks.build_planted: heavy^2 must stay within the FKS budget (<= 2n)";
  let p = Primes.prime_for_universe universe in
  let k_top = 1 + Rng.int rng (p - 1) in
  let k_inv = Modarith.inv p k_top in
  let nb = n in
  (* Keys hashing to bucket 0: x = k^-1 * (t * nb) mod p, provided the
     preimage t*nb is itself a valid universe element after inversion. *)
  let seen = Hashtbl.create (2 * n) in
  let keys = ref [] in
  let count = ref 0 in
  let add x =
    if x >= 0 && x < universe && not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      keys := x :: !keys;
      incr count
    end
  in
  let t = ref 1 in
  while !count < heavy do
    let y = !t * nb in
    if y >= p then invalid_arg "Fks.build_planted: universe too small to plant the bucket";
    add (Modarith.mul p k_inv y);
    incr t
  done;
  (* Fill the rest with random keys, re-drawing until the FKS condition
     still holds for this fixed k_top (almost always immediate: the
     planted bucket uses heavy^2 <= 2n of the 4n budget). *)
  let hash x = Modarith.mul p k_top x mod nb in
  let rec fill () =
    let extra = ref [] and extra_count = ref 0 in
    while !extra_count < n - heavy do
      let x = Rng.int rng universe in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        extra := x :: !extra;
        incr extra_count
      end
    done;
    let all = Array.of_list (!keys @ !extra) in
    let loads = Loads.loads ~hash ~buckets:nb all in
    if Loads.sum_squares loads <= (heavy * heavy) + (4 * n) then all
    else begin
      List.iter (Hashtbl.remove seen) !extra;
      fill ()
    end
  in
  let all = fill () in
  let structure = assemble ~replicate ~universe ~p ~k_top ~top_trials:1 all in
  (structure, all)

let query t r x =
  if x < 0 || x >= t.p then invalid_arg "Fks.mem: key outside universe";
  let k_top = Dict_intf.replica r ~base:0 ~stride:1 ~count:t.copies in
  let i = Modarith.mul t.p k_top x mod t.nb in
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
       ~name:(if t.copies > 1 then "fks-replicated" else "fks")
       ~table:t.table ~max_probes:4 (query t))
