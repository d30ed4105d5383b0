module Rng = Lc_prim.Rng

(* [keys.(i)] is [fst support.(i)], kept flat so a draw reads no tuple.
   [guide] has [Array.length guide - 1 = K] buckets, [K] a power of two
   no larger than the support; [guide.(k)] is the first index whose cdf
   is >= [k / K]. *)
type t = {
  name : string;
  support : (int * float) array;
  cdf : float array;
  keys : int array;
  guide : int array;
}

let name t = t.name
let support t = Array.copy t.support

let make name pairs =
  if Array.length pairs = 0 then invalid_arg "Qdist: empty support";
  (* Merge duplicate queries and normalise. *)
  let tbl = Hashtbl.create (Array.length pairs) in
  Array.iter
    (fun (x, w) ->
      if w <= 0.0 || not (Float.is_finite w) then invalid_arg "Qdist: weights must be positive";
      let prev = try Hashtbl.find tbl x with Not_found -> 0.0 in
      Hashtbl.replace tbl x (prev +. w))
    pairs;
  let merged = Hashtbl.fold (fun x w acc -> (x, w) :: acc) tbl [] in
  let merged = List.sort (fun (a, _) (b, _) -> compare a b) merged in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 merged in
  let support = Array.of_list (List.map (fun (x, w) -> (x, w /. total)) merged) in
  let cdf = Array.make (Array.length support) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (_, p) ->
      acc := !acc +. p;
      cdf.(i) <- !acc)
    support;
  cdf.(Array.length cdf - 1) <- 1.0;
  let n = Array.length cdf in
  let buckets = ref 1 in
  while 2 * !buckets <= n do
    buckets := 2 * !buckets
  done;
  let buckets = !buckets in
  (* The thresholds k / K are exact, and [cdf.(i) >= c] is monotone in
     [i] for every c <= 1: the forced final 1.0 may sit below an entry
     that rounding pushed past 1, but both pass. One forward scan finds
     every first index. *)
  let guide = Array.make (buckets + 1) 0 in
  let i = ref 0 in
  for k = 0 to buckets do
    let c = float_of_int k /. float_of_int buckets in
    while cdf.(!i) < c do
      incr i
    done;
    guide.(k) <- !i
  done;
  { name; support; cdf; keys = Array.map fst support; guide }

let sample t rng =
  let u = Rng.float rng in
  (* The first cdf entry >= u lies between the guides of u's bucket:
     [k / K <= u < (k + 1) / K], and [u *. K] is exact, so this is the
     index a binary search over the whole cdf finds. *)
  let k = int_of_float (u *. float_of_int (Array.length t.guide - 1)) in
  let lo = ref t.guide.(k) and hi = ref t.guide.(k + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  t.keys.(!lo)

let uniform ~name queries =
  make name (Array.map (fun x -> (x, 1.0)) queries)

let weighted ~name pairs = make name pairs

let point x = make (Printf.sprintf "point(%d)" x) [| (x, 1.0) |]

let zipf ~skew queries =
  if skew < 0.0 then invalid_arg "Qdist.zipf: negative skew";
  let pairs =
    Array.mapi (fun i x -> (x, 1.0 /. Float.pow (float_of_int (i + 1)) skew)) queries
  in
  make (Printf.sprintf "zipf(%.2f)" skew) pairs

let mixture ~name parts =
  if parts = [] then invalid_arg "Qdist.mixture: empty mixture";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 parts in
  if total <= 0.0 then invalid_arg "Qdist.mixture: non-positive total weight";
  let pairs =
    List.concat_map
      (fun (w, d) ->
        if w <= 0.0 then invalid_arg "Qdist.mixture: non-positive weight";
        Array.to_list (Array.map (fun (x, p) -> (x, w /. total *. p)) d.support))
      parts
  in
  make name (Array.of_list pairs)

let pos_neg ~pos ~neg ~p_pos =
  if p_pos < 0.0 || p_pos > 1.0 then invalid_arg "Qdist.pos_neg: p_pos outside [0, 1]";
  let parts =
    (if p_pos > 0.0 && Array.length pos > 0 then [ (p_pos, uniform ~name:"pos" pos) ] else [])
    @
    if p_pos < 1.0 && Array.length neg > 0 then [ (1.0 -. p_pos, uniform ~name:"neg" neg) ]
    else []
  in
  mixture ~name:(Printf.sprintf "pos_neg(%.2f)" p_pos) parts

let entropy t =
  Array.fold_left
    (fun acc (_, p) -> if p > 0.0 then acc -. (p *. (Float.log p /. Float.log 2.0)) else acc)
    0.0 t.support
