(* Tests for the workload generators. *)

module Rng = Lc_prim.Rng
module Keyset = Lc_workload.Keyset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let universe = 100_000

let all_distinct a =
  let s = Array.copy a in
  Array.sort compare s;
  let ok = ref true in
  for i = 1 to Array.length s - 1 do
    if s.(i) = s.(i - 1) then ok := false
  done;
  !ok

let in_universe a = Array.for_all (fun x -> x >= 0 && x < universe) a

let test_random () =
  let rng = Rng.create 1 in
  let keys = Keyset.random rng ~universe ~n:500 in
  checki "count" 500 (Array.length keys);
  checkb "distinct" true (all_distinct keys);
  checkb "in universe" true (in_universe keys)

let test_dense () =
  let keys = Keyset.dense ~universe ~n:100 in
  Alcotest.check (Alcotest.array Alcotest.int) "interval" (Array.init 100 Fun.id) keys;
  Alcotest.check_raises "too large" (Invalid_argument "Keyset.dense: n > universe") (fun () ->
      ignore (Keyset.dense ~universe:10 ~n:11))

let test_clustered () =
  let rng = Rng.create 2 in
  let keys = Keyset.clustered rng ~universe ~n:100 ~clusters:5 in
  checki "count" 100 (Array.length keys);
  checkb "distinct" true (all_distinct keys);
  checkb "in universe" true (in_universe keys);
  (* 5 clusters of consecutive keys: sorting them yields at most 5 gaps. *)
  let s = Array.copy keys in
  Array.sort compare s;
  let gaps = ref 0 in
  for i = 1 to 99 do
    if s.(i) <> s.(i - 1) + 1 then incr gaps
  done;
  checkb "at most 4 internal gaps" true (!gaps <= 4)

let test_arithmetic () =
  let keys = Keyset.arithmetic ~universe ~n:10 ~stride:7 in
  Alcotest.check (Alcotest.array Alcotest.int) "progression"
    [| 0; 7; 14; 21; 28; 35; 42; 49; 56; 63 |] keys;
  Alcotest.check_raises "escapes universe"
    (Invalid_argument "Keyset.arithmetic: progression leaves universe") (fun () ->
      ignore (Keyset.arithmetic ~universe:50 ~n:10 ~stride:7))

let test_negatives () =
  let rng = Rng.create 3 in
  let keys = Keyset.random rng ~universe ~n:200 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:300 in
  checki "count" 300 (Array.length negs);
  checkb "distinct" true (all_distinct negs);
  checkb "disjoint from keys" true
    (Array.for_all (fun x -> not (Array.mem x keys)) negs)

(* ------------------------------------------------------------------ *)
(* Opstream                                                             *)
(* ------------------------------------------------------------------ *)

module Opstream = Lc_workload.Opstream

let test_opstream_mix () =
  let rng = Rng.create 10 in
  let ops = Opstream.generate rng ~universe ~length:10_000 ~working_set:200 in
  checki "length" 10_000 (Array.length ops);
  let ins = ref 0 and del = ref 0 and qry = ref 0 in
  Array.iter
    (fun (op : Opstream.op) ->
      match op with
      | Insert _ -> incr ins
      | Delete _ -> incr del
      | Query _ -> incr qry)
    ops;
  let frac c = float_of_int !c /. 10_000.0 in
  checkb "insert fraction ~0.4" true (Float.abs (frac ins -. 0.4) < 0.03);
  checkb "delete fraction ~0.1" true (Float.abs (frac del -. 0.1) < 0.03);
  checkb "query fraction ~0.5" true (Float.abs (frac qry -. 0.5) < 0.03)

let test_opstream_working_set () =
  let rng = Rng.create 11 in
  let ws = 50 in
  let ops = Opstream.generate rng ~universe ~length:5_000 ~working_set:ws in
  let keys = Hashtbl.create 64 in
  Array.iter
    (fun (op : Opstream.op) ->
      let x = match op with Insert x | Delete x | Query x -> x in
      Hashtbl.replace keys x ())
    ops;
  checkb "at most ws distinct keys" true (Hashtbl.length keys <= ws)

let test_opstream_oracle_consistency () =
  (* Playing the stream against the dynamic dictionary must match the
     model-set oracle on every query. *)
  let rng = Rng.create 12 in
  let ops = Opstream.generate rng ~universe ~length:2_000 ~working_set:100 in
  let expected = Opstream.replay_oracle ops in
  let t = Lc_dynamic.Dynamic.create (Rng.create 13) ~universe () in
  let qrng = Rng.create 14 in
  Array.iteri
    (fun i (op : Opstream.op) ->
      match op with
      | Insert x -> Lc_dynamic.Dynamic.insert t x
      | Delete x -> Lc_dynamic.Dynamic.delete t x
      | Query x ->
        checkb
          (Printf.sprintf "op %d: query %d" i x)
          expected.(i)
          (Lc_dynamic.Dynamic.mem t qrng x))
    ops;
  match Lc_dynamic.Dynamic.check t qrng with Ok () -> () | Error e -> Alcotest.fail e

let test_opstream_apply_counters () =
  let rng = Rng.create 15 in
  let ops = Opstream.generate rng ~universe ~length:500 ~working_set:40 in
  let t = Lc_dynamic.Dynamic.create (Rng.create 16) ~universe () in
  let ins, del, hits = Opstream.apply t (Rng.create 17) ops in
  checkb "counts partition the stream's updates" true
    (ins + del <= 500 && hits <= 500 && ins > 0)

let test_read_write_mix_fractions () =
  let rng = Rng.create 19 in
  let ops =
    Opstream.generate ~mix:(Opstream.read_write_mix ~read_fraction:0.9) rng ~universe
      ~length:10_000 ~working_set:200
  in
  let ins, del, qry = Opstream.counts ops in
  let frac c = float_of_int c /. 10_000.0 in
  checkb "query fraction ~0.9" true (Float.abs (frac qry -. 0.9) < 0.02);
  checkb "insert fraction ~0.05" true (Float.abs (frac ins -. 0.05) < 0.02);
  checkb "delete fraction ~0.05" true (Float.abs (frac del -. 0.05) < 0.02);
  checkb "read_fraction outside [0,1] rejected" true
    (try
       ignore (Opstream.read_write_mix ~read_fraction:1.5);
       false
     with Invalid_argument _ -> true)

let test_opstream_counts () =
  let rng = Rng.create 20 in
  let ops = Opstream.generate rng ~universe ~length:3_000 ~working_set:80 in
  let ins, del, qry = Opstream.counts ops in
  checki "counts partition the stream" 3_000 (ins + del + qry)

let test_opstream_split_round_robin () =
  let rng = Rng.create 21 in
  let ops = Opstream.generate rng ~universe ~length:2_000 ~working_set:80 in
  let domains = 3 in
  let updates, per_domain = Opstream.split ops ~domains in
  let ins, del, qry = Opstream.counts ops in
  checki "updates keep every insert and delete" (ins + del) (Array.length updates);
  checki "queries are dealt without loss" qry
    (Array.fold_left (fun a q -> a + Array.length q) 0 per_domain);
  (* The update subsequence preserves stream order, and domain d gets
     exactly the queries whose query-index is d mod domains, in order. *)
  let expected_updates =
    Array.of_list
      (List.filter
         (function Opstream.Insert _ | Opstream.Delete _ -> true | Opstream.Query _ -> false)
         (Array.to_list ops))
  in
  checkb "updates in stream order" true (updates = expected_updates);
  let q_keys =
    Array.of_list
      (List.filter_map
         (function Opstream.Query x -> Some x | _ -> None)
         (Array.to_list ops))
  in
  let ok = ref true in
  Array.iteri
    (fun d qs ->
      Array.iteri (fun i x -> if q_keys.((i * domains) + d) <> x then ok := false) qs)
    per_domain;
  checkb "round-robin deal" true !ok

let test_opstream_initial_pool () =
  let rng = Rng.create 22 in
  let pool = Keyset.random (Rng.create 23) ~universe ~n:30 in
  let ops =
    Opstream.generate ~mix:{ p_insert = 0.0; p_delete = 0.0 } ~initial_pool:pool rng ~universe
      ~length:500 ~working_set:30
  in
  (* A query-only stream over a seeded pool can only talk about the pool. *)
  checkb "queries drawn from the seeded pool" true
    (Array.for_all
       (function Opstream.Query x -> Array.mem x pool | _ -> false)
       ops);
  checkb "oversized pool rejected" true
    (try
       ignore (Opstream.generate ~initial_pool:pool rng ~universe ~length:10 ~working_set:10);
       false
     with Invalid_argument _ -> true)

let test_opstream_validates () =
  let rng = Rng.create 18 in
  let raised =
    try
      ignore
        (Opstream.generate ~mix:{ p_insert = 0.9; p_delete = 0.3 } rng ~universe ~length:10
           ~working_set:5);
      false
    with Invalid_argument _ -> true
  in
  checkb "mix must be sub-stochastic" true raised

let test_point_mass () =
  let pool = Keyset.random (Rng.create 31) ~universe ~n:64 in
  let hot_key =
    let rec find c = if Array.mem c pool then find (c + 1) else c in
    find 0
  in
  let length = 4_000 and hot_from = 2_000 and hot_share = 0.9 in
  let qmix = { Opstream.p_insert = 0.0; p_delete = 0.0 } in
  let mk seed =
    Opstream.point_mass ~mix:qmix ~initial_pool:pool (Rng.create seed) ~universe ~length
      ~working_set:64 ~hot_from ~hot_share ~hot_key
  in
  let ops = mk 5 in
  (* The base stream is drawn before the rewrite pass touches the rng,
     so the pre-offset prefix is exactly generate's output. *)
  let base =
    Opstream.generate ~mix:qmix ~initial_pool:pool (Rng.create 5) ~universe ~length
      ~working_set:64
  in
  checkb "prefix is exactly the base stream" true
    (Array.sub ops 0 hot_from = Array.sub base 0 hot_from);
  let hot_before = ref 0 and hot_after = ref 0 in
  Array.iteri
    (fun i op ->
      match op with
      | Opstream.Query x when x = hot_key ->
        if i < hot_from then incr hot_before else incr hot_after
      | _ -> ())
    ops;
  (* The pool fills the working set and excludes the hot key, so the
     crowd is silent until the offset... *)
  checki "silent before the offset" 0 !hot_before;
  (* ...and ~hot_share of post-offset queries after it. *)
  let f = float_of_int !hot_after /. float_of_int (length - hot_from) in
  checkb "~hot_share after the offset" true (f > 0.85 && f < 0.95);
  checkb "seed-deterministic" true (mk 5 = mk 5);
  checkb "distinct seeds differ" true (mk 5 <> mk 6);
  checkb "hot_from out of range rejected" true
    (try
       ignore
         (Opstream.point_mass ~mix:qmix ~initial_pool:pool (Rng.create 5) ~universe ~length
            ~working_set:64 ~hot_from:(length + 1) ~hot_share ~hot_key);
       false
     with Invalid_argument _ -> true);
  checkb "hot_share above one rejected" true
    (try
       ignore
         (Opstream.point_mass ~mix:qmix ~initial_pool:pool (Rng.create 5) ~universe ~length
            ~working_set:64 ~hot_from ~hot_share:1.5 ~hot_key);
       false
     with Invalid_argument _ -> true)

let test_shifting_zipf () =
  let n = 16 in
  let pool = Array.init n (fun i -> 100 + (7 * i)) in
  let shift_every = 1_600 in
  let mk () =
    Opstream.shifting_zipf ~exponent:1.2 (Rng.create 7) ~pool ~length:(4 * shift_every)
      ~shift_every
  in
  let ops = mk () in
  let ins, del, qry = Opstream.counts ops in
  checki "query-only" (4 * shift_every) qry;
  checki "no inserts" 0 ins;
  checki "no deletes" 0 del;
  checkb "queries drawn from the pool" true
    (Array.for_all (function Opstream.Query x -> Array.mem x pool | _ -> false) ops);
  (* The rank-to-key rotation moves the mode: segment s's most frequent
     key is pool.(s mod n). *)
  let hottest seg =
    let tally = Hashtbl.create 16 in
    for i = seg * shift_every to ((seg + 1) * shift_every) - 1 do
      match ops.(i) with
      | Opstream.Query x ->
        Hashtbl.replace tally x (1 + Option.value ~default:0 (Hashtbl.find_opt tally x))
      | _ -> ()
    done;
    fst (Hashtbl.fold (fun k v (bk, bv) -> if v > bv then (k, v) else (bk, bv)) tally (-1, 0))
  in
  let ok = ref true in
  for seg = 0 to 3 do
    if hottest seg <> pool.(seg mod n) then ok := false
  done;
  checkb "hot key walks the pool" true !ok;
  checkb "seed-deterministic" true (mk () = mk ());
  checkb "empty pool rejected" true
    (try
       ignore (Opstream.shifting_zipf (Rng.create 7) ~pool:[||] ~length:10 ~shift_every:5);
       false
     with Invalid_argument _ -> true)

let prop_random_any_size =
  QCheck.Test.make ~name:"random keyset: distinct, in-universe" ~count:100
    QCheck.(int_range 1 400)
    (fun n ->
      let rng = Rng.create (n * 3) in
      let keys = Keyset.random rng ~universe ~n in
      Array.length keys = n && all_distinct keys && in_universe keys)

let prop_clustered_sizes =
  QCheck.Test.make ~name:"clustered keyset: exact size" ~count:50
    QCheck.(pair (int_range 4 200) (int_range 1 10))
    (fun (n, clusters) ->
      QCheck.assume (clusters <= n);
      let rng = Rng.create (n + clusters) in
      let keys = Keyset.clustered rng ~universe ~n ~clusters in
      Array.length keys = n && all_distinct keys)

let () =
  Alcotest.run "lc_workload"
    [
      ( "keyset",
        [
          Alcotest.test_case "random" `Quick test_random;
          Alcotest.test_case "dense" `Quick test_dense;
          Alcotest.test_case "clustered" `Quick test_clustered;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "negatives" `Quick test_negatives;
        ] );
      ( "opstream",
        [
          Alcotest.test_case "mix fractions" `Quick test_opstream_mix;
          Alcotest.test_case "working-set bound" `Quick test_opstream_working_set;
          Alcotest.test_case "oracle consistency" `Quick test_opstream_oracle_consistency;
          Alcotest.test_case "apply counters" `Quick test_opstream_apply_counters;
          Alcotest.test_case "mix validation" `Quick test_opstream_validates;
          Alcotest.test_case "read-write mix" `Quick test_read_write_mix_fractions;
          Alcotest.test_case "counts" `Quick test_opstream_counts;
          Alcotest.test_case "split round-robin" `Quick test_opstream_split_round_robin;
          Alcotest.test_case "initial pool" `Quick test_opstream_initial_pool;
        ] );
      ( "time-varying",
        [
          Alcotest.test_case "point mass" `Quick test_point_mass;
          Alcotest.test_case "shifting zipf" `Quick test_shifting_zipf;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_random_any_size; prop_clustered_sizes ] );
    ]
