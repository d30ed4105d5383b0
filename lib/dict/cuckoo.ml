module Primes = Lc_prim.Primes
module Poly_hash = Lc_hash.Poly_hash
module Table = Lc_cellprobe.Table

type t = {
  table : Table.t;
  p : int;
  d : int;
  size_each : int;
  copies : int;  (* replicas of each coefficient word *)
  rehashes : int;
}

(* Cell layout: 2*d coefficient regions of [copies] cells each
   (h0's coefficients then h1's), then T_0, then T_1. *)
let coeff_base t which i = ((which * t.d) + i) * t.copies
let t0_base t = 2 * t.d * t.copies
let t1_base t = t0_base t + t.size_each

(* In-memory cuckoo insertion; returns slot arrays or None on failure. *)
let try_insert ~h0 ~h1 ~size_each keys =
  let slots = Array.make (2 * size_each) (-1) in
  let limit = (10 * Table.bits_for (Array.length keys + 1)) + 20 in
  let place x =
    let rec walk x side steps =
      if steps > limit then false
      else
        let h = if side = 0 then h0 else h1 in
        let j = (side * size_each) + Poly_hash.eval h x in
        let prev = slots.(j) in
        slots.(j) <- x;
        if prev = -1 then true else walk prev (1 - side) (steps + 1)
    in
    walk x 0 0
  in
  let ok = Array.for_all place keys in
  if ok then Some slots else None

let build ?(replicate = true) ?(d = 3) rng ~universe ~keys =
  if Array.length keys = 0 then invalid_arg "Cuckoo.build: empty key set";
  let seen = Hashtbl.create (Array.length keys) in
  Array.iter
    (fun x ->
      if x < 0 || x >= universe then invalid_arg "Cuckoo.build: key outside universe";
      if Hashtbl.mem seen x then invalid_arg "Cuckoo.build: duplicate key";
      Hashtbl.add seen x ())
    keys;
  let n = Array.length keys in
  let p = Primes.prime_for_universe universe in
  let size_each = max 2 ((13 * n / 10) + 1) in
  let rec attempt rehashes =
    let h0 = Poly_hash.create rng ~d ~p ~m:size_each in
    let h1 = Poly_hash.create rng ~d ~p ~m:size_each in
    match try_insert ~h0 ~h1 ~size_each keys with
    | Some slots -> (h0, h1, slots, rehashes)
    | None -> attempt (rehashes + 1)
  in
  let h0, h1, slots, rehashes = attempt 0 in
  let copies = if replicate then n else 1 in
  let cells = (2 * d * copies) + (2 * size_each) in
  let bits = Table.bits_for (max (universe - 1) (p - 1)) in
  let table = Table.create ~init:(-1) ~cells ~bits () in
  let t = { table; p; d; size_each; copies; rehashes } in
  let write_coeffs which h =
    let cs = Poly_hash.coeffs h in
    Array.iteri
      (fun i c ->
        for r = 0 to copies - 1 do
          Table.write table (coeff_base t which i + r) c
        done)
      cs
  in
  write_coeffs 0 h0;
  write_coeffs 1 h1;
  Array.iteri
    (fun j x -> if x <> -1 then Table.write table (t0_base t + j) x)
    slots;
  t

(* Hash function [which]'s d coefficient words, each read from one of
   its copies. *)
let read_poly t r which =
  let cs = Array.make t.d 0 in
  for i = 0 to t.d - 1 do
    cs.(i) <- Dict_intf.replica r ~base:(coeff_base t which i) ~stride:1 ~count:t.copies
  done;
  Poly_hash.of_coeffs ~p:t.p ~m:t.size_each cs

(* The second data probe happens only when the first misses. *)
let query t r x =
  if x < 0 || x >= t.p then invalid_arg "Cuckoo.mem: key outside universe";
  let h0 = read_poly t r 0 in
  let h1 = read_poly t r 1 in
  Dict_intf.point r (t0_base t + Poly_hash.eval h0 x) = x
  || Dict_intf.point r (t1_base t + Poly_hash.eval h1 x) = x

let rehashes t = t.rehashes

let instance t =
  Instance.of_core
    (Dict_intf.make
       ~name:(if t.copies > 1 then "cuckoo-replicated" else "cuckoo")
       ~table:t.table ~max_probes:((2 * t.d) + 2) (query t))
