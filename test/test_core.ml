(* Tests for the paper's construction: parameter derivation, layout,
   histograms, the builder and P(S), the query algorithm, verification
   and corruption detection, and the Theorem 3 contention guarantee. *)

module Rng = Lc_prim.Rng
module Params = Lc_core.Params
module Layout = Lc_core.Layout
module Histogram = Lc_core.Histogram
module Structure = Lc_core.Structure
module Query = Lc_core.Query
module Verify = Lc_core.Verify
module Dictionary = Lc_core.Dictionary
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec
module Qdist = Lc_cellprobe.Qdist
module Contention = Lc_cellprobe.Contention
module Instance = Lc_dict.Instance
module Keyset = Lc_workload.Keyset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let universe = 1 lsl 20

let build_keys seed n =
  let rng = Rng.create seed in
  Keyset.random rng ~universe ~n

let build seed n =
  let keys = build_keys seed n in
  let rng = Rng.create (seed * 31) in
  (Dictionary.build rng ~universe ~keys, keys)

(* ------------------------------------------------------------------ *)
(* Params                                                               *)
(* ------------------------------------------------------------------ *)

let test_params_defaults () =
  let p = Params.make ~universe ~n:1024 () in
  checki "d" 3 p.d;
  checkb "m divides s" true (p.s mod p.m = 0);
  checkb "s >= beta n" true (p.s >= 2 * 1024);
  checkb "s not wasteful" true (p.s <= 3 * 1024);
  checki "buckets per group" (p.s / p.m) p.g_per_group;
  checkb "r near sqrt n" true (p.r >= 32 && p.r <= 40);
  checkb "prime above universe" true (p.p > universe);
  checkb "cell bits hold keys" true (1 lsl p.cell_bits > universe)

let test_params_rows () =
  let p = Params.make ~universe ~n:512 () in
  checki "rows" ((2 * p.d) + p.rho + 4) (Params.rows p);
  checki "total cells" (Params.rows p * p.s) (Params.total_cells p);
  checki "max probes = rows" (Params.rows p) (Params.max_probes p)

let test_params_histogram_budget () =
  let p = Params.make ~universe ~n:2048 () in
  (* rho words must cover cap_group + g_per_group bits *)
  checkb "budget" true (p.rho * p.cell_bits >= p.cap_group + p.g_per_group)

let test_params_validation () =
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "d <= 2" true (expect_invalid (fun () -> Params.make ~d:2 ~universe ~n:100 ()));
  checkb "delta too small" true
    (expect_invalid (fun () -> Params.make ~delta:0.1 ~universe ~n:100 ()));
  checkb "delta too large" true
    (expect_invalid (fun () -> Params.make ~delta:0.9 ~universe ~n:100 ()));
  checkb "beta 1" true (expect_invalid (fun () -> Params.make ~beta:1 ~universe ~n:100 ()));
  checkb "n 0" true (expect_invalid (fun () -> Params.make ~universe ~n:0 ()));
  checkb "universe < n" true (expect_invalid (fun () -> Params.make ~universe:10 ~n:100 ()));
  checkb "c below e" true (expect_invalid (fun () -> Params.make ~c:2.0 ~universe ~n:100 ()));
  (* One group of 10000 keys: cap_group * rho * cell_bits is about 4e9,
     past the 31 bits Histogram.locate packs a slot offset into. *)
  checkb "group too large to locate" true
    (expect_invalid (fun () -> Params.make ~alpha:1e9 ~universe ~n:10_000 ()))

let test_params_pp () =
  let p = Params.make ~universe ~n:256 () in
  let s = Format.asprintf "%a" Params.pp p in
  checkb "mentions n" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Layout                                                               *)
(* ------------------------------------------------------------------ *)

let test_layout_rows_distinct () =
  let p = Params.make ~universe ~n:512 () in
  let rows =
    List.concat
      [
        List.init p.d (Layout.f_row p);
        List.init p.d (Layout.g_row p);
        [ Layout.z_row p; Layout.gbas_row p ];
        List.init p.rho (Layout.hist_row p);
        [ Layout.phash_row p; Layout.data_row p ];
      ]
  in
  let sorted = List.sort_uniq compare rows in
  checki "all rows distinct" (List.length rows) (List.length sorted);
  checki "rows contiguous from 0" (Params.rows p) (List.length rows);
  checki "first row" 0 (List.hd sorted);
  checki "last row" (Params.rows p - 1) (List.nth sorted (List.length sorted - 1))

let test_layout_cell_arithmetic () =
  let p = Params.make ~universe ~n:256 () in
  checki "cell 0" 0 (Layout.cell p ~row:0 0);
  checki "row stride" p.s (Layout.cell p ~row:1 0);
  checki "column offset" (p.s + 5) (Layout.cell p ~row:1 5)

let test_layout_bounds () =
  let p = Params.make ~universe ~n:256 () in
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "row out of range" true
    (expect_invalid (fun () -> Layout.cell p ~row:(Params.rows p) 0));
  checkb "column out of range" true (expect_invalid (fun () -> Layout.cell p ~row:0 p.s))

let test_layout_z_replicas () =
  let p = Params.make ~universe ~n:256 () in
  (* Total replicas across residues = s. *)
  let total = ref 0 in
  for res = 0 to p.r - 1 do
    total := !total + Layout.z_replicas p res
  done;
  checki "replicas partition the row" p.s !total

let test_layout_group_bijection () =
  let p = Params.make ~universe ~n:256 () in
  for bk = 0 to p.s - 1 do
    let g = Layout.group_of_bucket p bk and k = Layout.index_in_group p bk in
    checki "bijection" bk (Layout.bucket_of_group_index p ~group:g k)
  done

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)
(* ------------------------------------------------------------------ *)

let test_histogram_roundtrip () =
  let p = Params.make ~universe ~n:512 () in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    (* Random loads summing to at most cap_group. *)
    let loads = Array.make p.g_per_group 0 in
    let budget = ref p.cap_group in
    for k = 0 to p.g_per_group - 1 do
      let l = Rng.int rng (min 6 (!budget + 1)) in
      loads.(k) <- l;
      budget := !budget - l
    done;
    let words = Histogram.encode p ~loads in
    checki "rho words" p.rho (Array.length words);
    Alcotest.check (Alcotest.array Alcotest.int) "round-trip" loads (Histogram.decode p words)
  done

let test_histogram_overflow_rejected () =
  let p = Params.make ~universe ~n:256 () in
  let loads = Array.make p.g_per_group (p.cap_group + 1) in
  let raised = try ignore (Histogram.encode p ~loads); false with Invalid_argument _ -> true in
  checkb "rejects over-budget loads" true raised

(* [Histogram.locate]'s result as an (offset, length) pair. *)
let located p words ~k =
  let slot = Histogram.locate p words ~k in
  (Histogram.slot_offset slot, Histogram.slot_length slot)

let test_histogram_slot_range () =
  let p = Params.make ~universe ~n:256 () in
  let loads = Array.make p.g_per_group 0 in
  loads.(0) <- 2;
  loads.(1) <- 3;
  loads.(2) <- 1;
  let words = Histogram.encode p ~loads in
  let range k = located p words ~k in
  let off, len = range 0 in
  checki "first offset" 0 off;
  checki "first length" 4 len;
  let off, len = range 1 in
  checki "second offset" 4 off;
  checki "second length" 9 len;
  let off, len = range 2 in
  checki "third offset" 13 off;
  checki "third length" 1 len;
  let _, len = range 3 in
  checki "empty bucket" 0 len;
  let rejects k = try ignore (Histogram.locate p words ~k); false with Invalid_argument _ -> true in
  checkb "index below the group" true (rejects (-1));
  checkb "index past the group" true (rejects p.g_per_group)

let test_histogram_locate_byte_runs () =
  (* Two buckets of cap 5 in one 21-bit word, so a run of 6 fits between
     two zeros of one byte. As a bucket's load it is rejected; after the
     last bucket's run, where decode never reads, it is not. *)
  let p = Params.make ~c:5.0 ~alpha:1.0 ~universe ~n:3 () in
  checki "cap" 5 p.cap_group;
  checki "buckets" 2 p.g_per_group;
  let over = Histogram.encode p ~loads:[| 0; 6 |] in
  checkb "a load of 6 inside one byte is rejected" true
    (try ignore (Histogram.locate p over ~k:0); false with Invalid_argument _ -> true);
  let words = Histogram.encode p ~loads:[| 4; 3 |] in
  (* The last bucket's zero is bit 8; bits 9-14 are ones, bit 15 zero. *)
  words.(0) <- words.(0) lor (0x3F lsl 9);
  Alcotest.check (Alcotest.array Alcotest.int) "decode" [| 4; 3 |] (Histogram.decode p words);
  let check_range name expected k =
    Alcotest.(check (pair int int)) name expected (located p words ~k)
  in
  check_range "first bucket" (0, 16) 0;
  check_range "second bucket" (16, 9) 1

let test_histogram_locate_allocates_nothing () =
  (* Query.query calls locate once per query; the lint baseline
     carries no allocation entry for it, so it must allocate nothing. *)
  let p = Params.make ~universe:(1 lsl 24) ~n:4096 () in
  let loads = Array.init p.g_per_group (fun k -> [| 0; 1; 2; 0; 3; 1 |].(k mod 6)) in
  let words = Histogram.encode p ~loads in
  let calls = 10_000 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    acc := !acc + Histogram.locate p words ~k:(i mod p.g_per_group)
  done;
  let after = Gc.minor_words () in
  let idle = Gc.minor_words () -. after in
  ignore (Sys.opaque_identity !acc);
  Alcotest.check (Alcotest.float 0.0) "minor words over 10k calls" idle (after -. before)

(* ------------------------------------------------------------------ *)
(* Structure / builder                                                  *)
(* ------------------------------------------------------------------ *)

let test_build_small_sizes () =
  List.iter
    (fun n ->
      let dict, keys = build (100 + n) n in
      checki "keeps keys" n (Array.length keys);
      checkb "space linear" true (Dictionary.space dict <= 64 * n + 4096))
    [ 1; 2; 3; 5; 8; 16; 33; 64; 100 ]

let test_build_rejects_bad_keys () =
  let rng = Rng.create 1 in
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "duplicate" true
    (expect_invalid (fun () -> Dictionary.build rng ~universe ~keys:[| 4; 4; 5 |]));
  checkb "out of universe" true
    (expect_invalid (fun () -> Dictionary.build rng ~universe:100 ~keys:[| 100 |]))

let test_property_p_holds_for_built () =
  let dict, _keys = build 7 512 in
  let s = Dictionary.structure dict in
  let g = Lc_hash.Dm_family.g s.top in
  checkb "P(S)" true (Structure.property_p s.params ~g ~h:s.top ~keys:s.keys)

let test_build_gbas_monotone () =
  let dict, _ = build 8 512 in
  let s = Dictionary.structure dict in
  let p = s.params in
  for i = 1 to p.m - 1 do
    checkb "monotone" true (s.gbas.(i) >= s.gbas.(i - 1))
  done;
  checkb "within s" true (Array.for_all (fun g -> g <= p.s) s.gbas)

let test_build_starts_disjoint () =
  let dict, _ = build 9 512 in
  let s = Dictionary.structure dict in
  let p = s.params in
  (* Slot blocks must tile without overlap. *)
  let covered = Array.make p.s false in
  Array.iteri
    (fun bk l ->
      if l > 0 then
        for j = s.starts.(bk) to s.starts.(bk) + (l * l) - 1 do
          checkb "no overlap" false covered.(j);
          covered.(j) <- true
        done)
    s.loads;
  let used = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 covered in
  checki "used = sum l^2" (Lc_hash.Loads.sum_squares s.loads) used

let test_build_nondefault_params () =
  (* The T10 ablation's configurations must all build and verify. *)
  let keys = build_keys 33 256 in
  List.iter
    (fun (d, delta, beta) ->
      let rng = Rng.create (d + beta) in
      let dict = Dictionary.build ~d ~delta ~beta rng ~universe ~keys in
      (match Dictionary.verify dict with
      | Ok () -> ()
      | Error e -> Alcotest.failf "d=%d beta=%d: %s" d beta e);
      let p = Dictionary.params dict in
      checki "d respected" d p.d;
      checkb "beta respected" true (p.s >= beta * 256);
      checkb "still answers" true (Dictionary.mem dict rng keys.(0)))
    [ (4, 0.55, 2); (5, 0.55, 3); (3, 0.45, 4) ]

let test_build_trials_small () =
  let total = ref 0 in
  for seed = 1 to 20 do
    let dict, _ = build (300 + seed) 256 in
    total := !total + Dictionary.build_trials dict
  done;
  checkb "mean trials < 3" true (float_of_int !total /. 20.0 < 3.0)

(* ------------------------------------------------------------------ *)
(* Query                                                                *)
(* ------------------------------------------------------------------ *)

let test_query_positive () =
  let dict, keys = build 10 512 in
  let rng = Rng.create 1000 in
  Array.iter (fun x -> checkb "present" true (Dictionary.mem dict rng x)) keys

let test_query_negative () =
  let dict, keys = build 11 512 in
  let rng = Rng.create 1001 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:1000 in
  Array.iter (fun x -> checkb "absent" false (Dictionary.mem dict rng x)) negs

let test_query_probe_budget () =
  let dict, keys = build 12 512 in
  let (module D : Lc_dict.Dict_intf.S) = Dictionary.core dict in
  let rng = Rng.create 1002 in
  let used = ref 0 in
  let probe ~step j =
    used := max !used (step + 1);
    Table.peek D.table j
  in
  let drill x =
    used := 0;
    ignore (D.mem ~probe rng x);
    checkb "within budget" true (!used <= Dictionary.max_probes dict)
  in
  Array.iter drill (Array.sub keys 0 64);
  Array.iter drill (Keyset.negatives rng ~universe ~keys ~count:64)

(* A query only reads: the table's heap is its cells and width, the
   same after queries as when built. *)
let test_query_leaves_table () =
  let dict, keys = build 15 4096 in
  let table = (Dictionary.structure dict).table in
  let words () = Obj.reachable_words (Obj.repr table) in
  let before = words () in
  let rng = Rng.create 1005 in
  Array.iter (fun x -> ignore (Dictionary.mem dict rng x : bool)) (Array.sub keys 0 64);
  checki "reachable words unchanged" before (words ());
  checkb "cells and width only" true (before <= Table.size table + 8)

let test_query_spec_matches_mem () =
  let dict, keys = build 13 256 in
  let inst = Dictionary.instance dict in
  let rng = Rng.create 1003 in
  let sample =
    Array.append (Array.sub keys 0 40) (Keyset.negatives rng ~universe ~keys ~count:40)
  in
  (match Instance.check_spec_against_mem inst ~rng ~queries:sample with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

(* The spec reads the first copy of each replicated word, mem a random
   one: a table whose copies of one coefficient disagree must fail the
   cross-check. Every copy of f's first coefficient but the first is
   overwritten here. *)
let test_query_spec_catches_bad_copies () =
  let dict, keys = build 13 256 in
  let p = Dictionary.params dict and inst = Dictionary.instance dict in
  let cell j = Layout.cell p ~row:(Layout.f_row p 0) j in
  let c = Table.peek inst.table (cell 0) in
  for j = 1 to p.s - 1 do
    Table.write inst.table (cell j) ((c + 1) mod p.p)
  done;
  let queries = Array.sub keys 0 40 in
  match Instance.check_spec_against_mem inst ~rng:(Rng.create 1003) ~queries with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "copies that disagree passed the spec-vs-mem check"

let test_query_spec_valid () =
  let dict, keys = build 14 256 in
  let inst = Dictionary.instance dict in
  let rng = Rng.create 1004 in
  let all = Array.append keys (Keyset.negatives rng ~universe ~keys ~count:256) in
  Array.iter
    (fun x ->
      match Spec.validate ~cells:inst.space (inst.spec x) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "query %d: %s" x e)
    all

let test_query_deterministic_answer () =
  (* Randomness balances probes but never changes the answer. *)
  let dict, keys = build 15 128 in
  let x = keys.(0) in
  for seed = 0 to 50 do
    let rng = Rng.create seed in
    checkb "same answer" true (Dictionary.mem dict rng x)
  done

(* ------------------------------------------------------------------ *)
(* Verify and corruption                                                *)
(* ------------------------------------------------------------------ *)

let test_verify_ok () =
  let dict, _ = build 16 512 in
  match Dictionary.verify dict with Ok () -> () | Error e -> Alcotest.fail e

let test_verify_queries_ok () =
  let dict, _ = build 17 256 in
  let s = Dictionary.structure dict in
  match Verify.check_queries s (Rng.create 55) with Ok () -> () | Error e -> Alcotest.fail e

let test_verify_detects_corruption () =
  (* Flip one bit in a hundred independent copies; the verifier must
     notice every time (all cells are covered by some invariant). *)
  let detected = ref 0 in
  let trials = 60 in
  for seed = 1 to trials do
    let dict, _ = build (700 + seed) 128 in
    let s = Dictionary.structure dict in
    Table.corrupt s.table (Rng.create seed);
    match Verify.check s with Ok () -> () | Error _ -> incr detected
  done;
  checki "every corruption detected" trials !detected

let test_verify_detects_data_swap () =
  let dict, _ = build 18 256 in
  let s = Dictionary.structure dict in
  let p = s.params in
  (* Swap two distinct data-row cells holding different values. *)
  let row = Lc_core.Layout.data_row p in
  let c1 = Lc_core.Layout.cell p ~row 0 and c2 = ref (-1) in
  let v1 = Table.peek s.table c1 in
  (try
     for j = 1 to p.s - 1 do
       let c = Lc_core.Layout.cell p ~row j in
       if Table.peek s.table c <> v1 then begin
         c2 := c;
         raise Exit
       end
     done
   with Exit -> ());
  let v2 = Table.peek s.table !c2 in
  Table.write s.table c1 v2;
  Table.write s.table !c2 v1;
  checkb "swap detected" true (Result.is_error (Verify.check s))

(* Corrupt one specific row type and demand the verifier names it. *)
let corrupt_row_test row_of expect_substring () =
  let dict, _ = build 30 256 in
  let s = Dictionary.structure dict in
  let p = s.params in
  let row = row_of p in
  let j = 7 mod p.s in
  let cell = Lc_core.Layout.cell p ~row j in
  let v = Table.peek s.table cell in
  Table.write s.table cell (if v = -1 then 0 else (v + 1) mod (1 lsl (p.cell_bits - 1)));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    nn = 0 || at 0
  in
  match Verify.check s with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error e ->
    checkb (Printf.sprintf "error %S mentions %S" e expect_substring) true
      (contains e expect_substring)

let test_corrupt_f_row = corrupt_row_test (fun p -> Lc_core.Layout.f_row p 0) "f row"
let test_corrupt_g_row = corrupt_row_test (fun p -> Lc_core.Layout.g_row p 1) "g row"
let test_corrupt_z_row = corrupt_row_test Lc_core.Layout.z_row "z row"
let test_corrupt_gbas_row = corrupt_row_test Lc_core.Layout.gbas_row "GBAS row"
let test_corrupt_hist_row = corrupt_row_test (fun p -> Lc_core.Layout.hist_row p 0) "histogram row"

let test_mem_rejects_out_of_universe () =
  let dict, _ = build 31 64 in
  let rng = Rng.create 1 in
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "negative key" true (expect_invalid (fun () -> Dictionary.mem dict rng (-1)));
  checkb "key = universe" true (expect_invalid (fun () -> Dictionary.mem dict rng universe))

let test_build_deterministic_given_seed () =
  let keys = build_keys 32 256 in
  let build_cells () =
    let rng = Rng.create 12345 in
    let dict = Dictionary.build rng ~universe ~keys in
    Table.copy_cells (Dictionary.structure dict).table
  in
  Alcotest.check (Alcotest.array Alcotest.int) "identical tables" (build_cells ()) (build_cells ())

let test_histogram_crafted_overload_rejected () =
  (* Words that decode a load above cap_group must be rejected, not
     silently accepted (the query algorithm depends on this to notice a
     corrupted histogram rather than read out of its group). *)
  let p = Params.make ~universe ~n:256 () in
  let loads = Array.make p.g_per_group 0 in
  loads.(0) <- p.cap_group;
  let words = Histogram.encode p ~loads in
  (* Extending the unary run by one bit pushes it over the cap. *)
  let bp =
    Lc_prim.Bitpack.of_words ~word_bits:p.cell_bits ~bits:(p.rho * p.cell_bits) words
  in
  Lc_prim.Bitpack.set bp p.cap_group true;
  let words = Lc_prim.Bitpack.words bp in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "decode rejects the over-cap load" true (raises (fun () -> Histogram.decode p words));
  for k = 0 to p.g_per_group - 1 do
    checkb
      (Printf.sprintf "locate ~k:%d rejects the over-cap load" k)
      true
      (raises (fun () -> Histogram.locate p words ~k))
  done

(* ------------------------------------------------------------------ *)
(* Theorem 3: the contention guarantee                                  *)
(* ------------------------------------------------------------------ *)

let test_contention_flat_positive () =
  (* Normalized max contention must not grow with n. *)
  let at n =
    let dict, keys = build (900 + n) n in
    let inst = Dictionary.instance dict in
    Contention.normalized_max (Instance.contention_exact inst (Qdist.uniform ~name:"pos" keys))
  in
  let small = at 128 and large = at 2048 in
  checkb
    (Printf.sprintf "flat: %.1f vs %.1f" small large)
    true
    (large < small *. 1.5 && large < 60.0)

let test_contention_per_step_bounded () =
  (* Definition 2: the bound must hold per step, not just in total. *)
  let dict, keys = build 19 1024 in
  let inst = Dictionary.instance dict in
  let r = Instance.contention_exact inst (Qdist.uniform ~name:"pos" keys) in
  checkb "per-step normalized < 60" true (Contention.normalized_step_max r < 60.0)

let test_contention_negative_flat () =
  let dict, keys = build 20 1024 in
  let inst = Dictionary.instance dict in
  let rng = Rng.create 2020 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:8192 in
  let r = Instance.contention_exact inst (Qdist.uniform ~name:"neg" negs) in
  checkb "negative contention flat" true (Contention.normalized_max r < 80.0)

let test_contention_mc_agrees () =
  let dict, keys = build 21 256 in
  let inst = Dictionary.instance dict in
  let qd = Qdist.uniform ~name:"pos" keys in
  let ex = Instance.contention_exact inst qd in
  let mc = Instance.contention_mc inst qd ~rng:(Rng.create 3) ~queries:60_000 in
  (* Compare mean probes exactly and max contention loosely. *)
  checkb "mean probes agree" true (Float.abs (ex.mean_probes -. mc.mean_probes) < 0.05);
  checkb "max contention within 2x" true
    (mc.max_total < 2.0 *. ex.max_total && ex.max_total < 2.0 *. Float.max mc.max_total 1e-9)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_dictionary_oracle =
  QCheck.Test.make ~name:"dictionary agrees with Hashtbl oracle" ~count:15
    QCheck.(int_range 1 300)
    (fun n ->
      let rng = Rng.create ((n * 13) + 5) in
      let keys = Keyset.random rng ~universe ~n in
      let dict = Dictionary.build rng ~universe ~keys in
      let ok = ref true in
      Array.iter (fun x -> if not (Dictionary.mem dict rng x) then ok := false) keys;
      let in_keys = Hashtbl.create 64 in
      Array.iter (fun x -> Hashtbl.add in_keys x ()) keys;
      for _ = 1 to 200 do
        let x = Rng.int rng universe in
        if not (Hashtbl.mem in_keys x) && Dictionary.mem dict rng x then ok := false
      done;
      !ok)

let prop_histogram_roundtrip =
  QCheck.Test.make ~name:"histogram round-trip (qcheck loads)" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 8))
    (fun loads_list ->
      let p = Params.make ~universe ~n:512 () in
      let loads = Array.make p.g_per_group 0 in
      List.iteri (fun i l -> if i < p.g_per_group then loads.(i) <- l) loads_list;
      let total = Array.fold_left ( + ) 0 loads in
      QCheck.assume (total <= p.cap_group);
      Histogram.decode p (Histogram.encode p ~loads) = loads)

(* [locate] against the reference [decode], at four parameter sets: the
   bench's n = 256 (17-bit cells, 1 slack bit), n = 4096 (25-bit cells,
   no slack) and n = 131072 (29-bit cells, rho = 7, 26 slack bits), and
   n = 3 with c = 5, alpha = 1 (21-bit cells), whose cap_group of 5 is
   below the longest run a byte holds between two zeros. *)
let locate_params =
  let universe_for n = min (max (16 * n) (n * n)) (1 lsl 28) in
  [
    Params.make ~universe:(universe_for 256) ~n:256 ();
    Params.make ~universe:(universe_for 4096) ~n:4096 ();
    Params.make ~universe:(universe_for 131072) ~n:131072 ();
    Params.make ~c:5.0 ~alpha:1.0 ~universe ~n:3 ();
  ]

(* Loads [encode] accepts: mostly small, sometimes up to the cap, clipped
   to the histogram budget. With [~over], one bucket holds cap_group + 1,
   which needs a slack bit in the budget. *)
let gen_loads ?(over = false) (p : Params.t) =
  let open QCheck.Gen in
  let* loads =
    array_repeat p.g_per_group (frequency [ (6, int_bound 3); (1, int_bound p.cap_group) ])
  and* hot = int_bound (p.g_per_group - 1) in
  let reserved = if over then p.cap_group + 1 else 0 in
  let room = ref ((p.rho * p.cell_bits) - p.g_per_group - reserved) in
  Array.iteri
    (fun i l ->
      if over && i = hot then loads.(i) <- reserved
      else begin
        let l = min l !room in
        room := !room - l;
        loads.(i) <- l
      end)
    loads;
  return loads

let gen_histogram ?over p = QCheck.Gen.map (fun loads -> Histogram.encode p ~loads) (gen_loads ?over p)

(* [Some (off, len)] per bucket from [decode], or [None] if it rejects. *)
let reference_ranges p words =
  match Histogram.decode p words with
  | exception Invalid_argument _ -> None
  | loads ->
      let off = ref 0 in
      Some
        (Array.map
           (fun l ->
             let r = (!off, l * l) in
             off := !off + (l * l);
             r)
           loads)

let locate_agrees (p : Params.t) words =
  let attempt k = try Some (located p words ~k) with Invalid_argument _ -> None in
  match reference_ranges p words with
  | None -> List.for_all (fun k -> attempt k = None) (List.init p.g_per_group Fun.id)
  | Some ranges -> Array.for_all Fun.id (Array.mapi (fun k r -> attempt k = Some r) ranges)

let print_words words = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%x") words))

let prop_locate_matches_decode (p : Params.t) =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "locate = decode prefix sums (n=%d)" p.n)
    (QCheck.make ~print:print_words (gen_histogram p))
    (fun words -> reference_ranges p words <> None && locate_agrees p words)

(* Corruptions: random bit flips in the histogram, an all-ones word (an
   unterminated run), a run one past the cap where the budget has a
   slack bit for it, stray bits above [cell_bits], extra runs after the
   last bucket (over the cap, too, which [decode] never reads), and a
   wrong word count. *)
let gen_corrupted (p : Params.t) =
  let open QCheck.Gen in
  let budget = p.rho * p.cell_bits in
  let valid = gen_histogram p in
  let flip =
    let* words = valid and* flips = list_size (int_range 1 4) (int_bound (budget - 1)) in
    List.iter
      (fun b ->
        let w = b / p.cell_bits in
        words.(w) <- words.(w) lxor (1 lsl (b mod p.cell_bits)))
      flips;
    return words
  in
  let ones =
    let* words = valid and* w = int_bound (p.rho - 1) and* full = bool in
    words.(w) <- (if full then -1 else (1 lsl p.cell_bits) - 1);
    return words
  in
  let over_cap =
    if budget - p.g_per_group > p.cap_group then gen_histogram ~over:true p
    else flip
  in
  let stray =
    let* words = valid and* w = int_bound (p.rho - 1) and* junk = int_range 1 max_int in
    words.(w) <- words.(w) lor (junk lsl p.cell_bits);
    return words
  in
  let tail =
    let* loads = gen_loads p and* extra = list_size (int_range 1 4) (int_bound (p.cap_group + 3)) in
    let bp = Lc_prim.Bitpack.of_words ~word_bits:p.cell_bits ~bits:budget (Histogram.encode p ~loads) in
    let pos = ref (Array.fold_left ( + ) 0 loads + p.g_per_group) in
    List.iter
      (fun l -> if !pos + l < budget then pos := Lc_prim.Bitpack.append_unary bp ~pos:!pos l)
      extra;
    return (Lc_prim.Bitpack.words bp)
  in
  let resized =
    let* words = valid and* grow = bool in
    return (if grow then Array.append words [| 0 |] else Array.sub words 0 (p.rho - 1))
  in
  frequency [ (4, flip); (2, ones); (2, over_cap); (2, stray); (2, tail); (1, resized) ]

let prop_locate_rejects_like_decode (p : Params.t) =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "locate rejects as decode does (n=%d)" p.n)
    (QCheck.make ~print:print_words (gen_corrupted p))
    (locate_agrees p)

let prop_verify_after_build =
  QCheck.Test.make ~name:"verify holds for every build" ~count:15
    QCheck.(int_range 1 200)
    (fun n ->
      let rng = Rng.create ((n * 29) + 1) in
      let keys = Keyset.random rng ~universe ~n in
      let dict = Dictionary.build rng ~universe ~keys in
      Result.is_ok (Dictionary.verify dict))

let prop_keyset_shapes_work =
  QCheck.Test.make ~name:"dictionary works on structured key sets" ~count:10
    QCheck.(int_range 16 256)
    (fun n ->
      let rng = Rng.create (n + 3) in
      let shapes =
        [
          Keyset.dense ~universe ~n;
          Keyset.arithmetic ~universe ~n ~stride:97;
          Keyset.clustered rng ~universe ~n ~clusters:(max 1 (n / 16));
        ]
      in
      List.for_all
        (fun keys ->
          let dict = Dictionary.build rng ~universe ~keys in
          Array.for_all (fun x -> Dictionary.mem dict rng x) keys)
        shapes)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lc_core"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "rows" `Quick test_params_rows;
          Alcotest.test_case "histogram budget" `Quick test_params_histogram_budget;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "pp" `Quick test_params_pp;
        ] );
      ( "layout",
        [
          Alcotest.test_case "rows distinct and contiguous" `Quick test_layout_rows_distinct;
          Alcotest.test_case "cell arithmetic" `Quick test_layout_cell_arithmetic;
          Alcotest.test_case "bounds" `Quick test_layout_bounds;
          Alcotest.test_case "z replicas partition" `Quick test_layout_z_replicas;
          Alcotest.test_case "group bijection" `Quick test_layout_group_bijection;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "round-trip" `Quick test_histogram_roundtrip;
          Alcotest.test_case "overflow rejected" `Quick test_histogram_overflow_rejected;
          Alcotest.test_case "slot ranges" `Quick test_histogram_slot_range;
          Alcotest.test_case "locate checks runs inside a byte" `Quick
            test_histogram_locate_byte_runs;
          Alcotest.test_case "locate allocates nothing" `Quick
            test_histogram_locate_allocates_nothing;
        ] );
      ( "builder",
        [
          Alcotest.test_case "small sizes" `Quick test_build_small_sizes;
          Alcotest.test_case "rejects bad keys" `Quick test_build_rejects_bad_keys;
          Alcotest.test_case "P(S) holds for built" `Quick test_property_p_holds_for_built;
          Alcotest.test_case "GBAS monotone" `Quick test_build_gbas_monotone;
          Alcotest.test_case "slot blocks disjoint" `Quick test_build_starts_disjoint;
          Alcotest.test_case "non-default parameters" `Quick test_build_nondefault_params;
          Alcotest.test_case "trials small" `Quick test_build_trials_small;
        ] );
      ( "query",
        [
          Alcotest.test_case "positive" `Quick test_query_positive;
          Alcotest.test_case "negative" `Quick test_query_negative;
          Alcotest.test_case "probe budget" `Quick test_query_probe_budget;
          Alcotest.test_case "leaves its table as built" `Quick test_query_leaves_table;
          Alcotest.test_case "spec matches mem" `Quick test_query_spec_matches_mem;
          Alcotest.test_case "spec catches disagreeing copies" `Quick
            test_query_spec_catches_bad_copies;
          Alcotest.test_case "spec valid" `Quick test_query_spec_valid;
          Alcotest.test_case "answer deterministic" `Quick test_query_deterministic_answer;
        ] );
      ( "verify",
        [
          Alcotest.test_case "ok after build" `Quick test_verify_ok;
          Alcotest.test_case "queries ok" `Quick test_verify_queries_ok;
          Alcotest.test_case "detects bit flips" `Slow test_verify_detects_corruption;
          Alcotest.test_case "detects data swaps" `Quick test_verify_detects_data_swap;
          Alcotest.test_case "names corrupted f row" `Quick test_corrupt_f_row;
          Alcotest.test_case "names corrupted g row" `Quick test_corrupt_g_row;
          Alcotest.test_case "names corrupted z row" `Quick test_corrupt_z_row;
          Alcotest.test_case "names corrupted GBAS row" `Quick test_corrupt_gbas_row;
          Alcotest.test_case "names corrupted histogram row" `Quick test_corrupt_hist_row;
          Alcotest.test_case "mem rejects out-of-universe" `Quick test_mem_rejects_out_of_universe;
          Alcotest.test_case "build deterministic" `Quick test_build_deterministic_given_seed;
          Alcotest.test_case "crafted histogram overflow rejected" `Quick
            test_histogram_crafted_overload_rejected;
        ] );
      ( "theorem3",
        [
          Alcotest.test_case "flat positive contention" `Quick test_contention_flat_positive;
          Alcotest.test_case "per-step bounded" `Quick test_contention_per_step_bounded;
          Alcotest.test_case "negative contention flat" `Quick test_contention_negative_flat;
          Alcotest.test_case "monte-carlo agrees" `Slow test_contention_mc_agrees;
        ] );
      qsuite "properties"
        [
          prop_dictionary_oracle;
          prop_histogram_roundtrip;
          prop_verify_after_build;
          prop_keyset_shapes_work;
        ];
      qsuite "locate"
        (List.concat_map
           (fun p -> [ prop_locate_matches_decode p; prop_locate_rejects_like_decode p ])
           locate_params);
    ]
