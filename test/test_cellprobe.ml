(* Tests for the cell-probe model: tables, probe specs, query
   distributions, contention (exact vs Monte-Carlo), concurrency. *)

module Rng = Lc_prim.Rng
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec
module Qdist = Lc_cellprobe.Qdist
module Contention = Lc_cellprobe.Contention
module Concurrency = Lc_cellprobe.Concurrency

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Table                                                                *)
(* ------------------------------------------------------------------ *)

let test_table_rw () =
  let t = Table.create ~cells:10 ~bits:8 () in
  Table.write t 3 255;
  checki "read back" 255 (Table.peek t 3);
  checki "default" 0 (Table.peek t 0)

let test_table_bits_enforced () =
  let t = Table.create ~cells:4 ~bits:4 () in
  Table.write t 0 15;
  Alcotest.check_raises "16 too wide" (Invalid_argument "Table.write: value 16 does not fit 4 bits")
    (fun () -> Table.write t 0 16)

let test_table_sentinel_allowed () =
  let t = Table.create ~init:(-1) ~cells:4 ~bits:4 () in
  checki "sentinel" (-1) (Table.peek t 2);
  Table.write t 2 (-1)

let test_table_corrupt_changes () =
  let t = Table.create ~cells:16 ~bits:8 () in
  for i = 0 to 15 do
    Table.write t i (i * 3)
  done;
  let before = Table.copy_cells t in
  Table.corrupt t (Rng.create 99);
  checkb "one cell changed" true (before <> Table.copy_cells t)

let test_bits_for () =
  checki "0" 1 (Table.bits_for 0);
  checki "1" 1 (Table.bits_for 1);
  checki "2" 2 (Table.bits_for 2);
  checki "255" 8 (Table.bits_for 255);
  checki "256" 9 (Table.bits_for 256)

(* ------------------------------------------------------------------ *)
(* Spec                                                                 *)
(* ------------------------------------------------------------------ *)

let cells_of st = List.of_seq (Spec.step_cells st)

let test_spec_point () =
  Alcotest.check (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9))) "point"
    [ (7, 1.0) ] (cells_of (Spec.Point 7));
  checki "support" 1 (Spec.step_support_size (Spec.Point 7))

let test_spec_stride () =
  let st = Spec.Stride { base = 10; stride = 5; count = 3 } in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.float 1e-9)))
    "stride cells"
    [ (10, 1.0 /. 3.0); (15, 1.0 /. 3.0); (20, 1.0 /. 3.0) ]
    (cells_of st)

let test_spec_probabilities_sum () =
  let steps =
    [
      Spec.Point 0;
      Spec.Stride { base = 0; stride = 2; count = 7 };
    ]
  in
  List.iter
    (fun st ->
      let total = Seq.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Spec.step_cells st) in
      checkf "sums to 1" 1.0 total)
    steps

let test_spec_sample_in_support () =
  let rng = Rng.create 3 in
  let st = Spec.Stride { base = 4; stride = 3; count = 5 } in
  let support = List.map fst (cells_of st) in
  for _ = 1 to 200 do
    checkb "sample in support" true (List.mem (Spec.sample_step rng st) support)
  done

let test_spec_validate () =
  checkb "good plan" true
    (Spec.validate ~cells:100 [| Spec.Point 0; Spec.Stride { base = 1; stride = 7; count = 14 } |]
    |> Result.is_ok);
  checkb "cell out of range" true
    (Spec.validate ~cells:10 [| Spec.Point 10 |] |> Result.is_error);
  checkb "stride escapes" true
    (Spec.validate ~cells:10 [| Spec.Stride { base = 0; stride = 5; count = 3 } |]
    |> Result.is_error)

let test_spec_max_step_probability () =
  checkf "point" 1.0 (Spec.max_step_probability (Spec.Point 3));
  checkf "stride" 0.25 (Spec.max_step_probability (Spec.Stride { base = 0; stride = 1; count = 4 }))

(* ------------------------------------------------------------------ *)
(* Qdist                                                                *)
(* ------------------------------------------------------------------ *)

let test_qdist_uniform () =
  let d = Qdist.uniform ~name:"u" [| 5; 6; 7; 8 |] in
  let support = Qdist.support d in
  checki "4 atoms" 4 (Array.length support);
  Array.iter (fun (_, p) -> checkf "1/4 each" 0.25 p) support

let test_qdist_merges_duplicates () =
  let d = Qdist.uniform ~name:"u" [| 5; 5; 6 |] in
  let support = Qdist.support d in
  checki "2 atoms" 2 (Array.length support);
  let five = Array.to_list support |> List.assoc 5 in
  checkf "mass merged" (2.0 /. 3.0) five

let test_qdist_point () =
  let d = Qdist.point 42 in
  checki "one atom" 1 (Array.length (Qdist.support d));
  let rng = Rng.create 1 in
  for _ = 1 to 20 do
    checki "always 42" 42 (Qdist.sample d rng)
  done

let test_qdist_zipf_ranks () =
  let d = Qdist.zipf ~skew:1.0 [| 100; 200; 300 |] in
  let support = Array.to_list (Qdist.support d) in
  let p1 = List.assoc 100 support and p2 = List.assoc 200 support and p3 = List.assoc 300 support in
  checkb "rank order" true (p1 > p2 && p2 > p3);
  let h = 1.0 +. 0.5 +. (1.0 /. 3.0) in
  checkf "first mass" (1.0 /. h) p1

let test_qdist_zipf_zero_is_uniform () =
  let d = Qdist.zipf ~skew:0.0 [| 1; 2; 3; 4 |] in
  Array.iter (fun (_, p) -> checkf "uniform" 0.25 p) (Qdist.support d)

let test_qdist_sampling_matches_pmf () =
  let d = Qdist.weighted ~name:"w" [| (1, 0.7); (2, 0.2); (3, 0.1) |] in
  let rng = Rng.create 5 in
  let counts = Hashtbl.create 3 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let x = Qdist.sample d rng in
    Hashtbl.replace counts x (1 + try Hashtbl.find counts x with Not_found -> 0)
  done;
  Array.iter
    (fun (x, p) ->
      let freq = float_of_int (Hashtbl.find counts x) /. float_of_int trials in
      checkb (Printf.sprintf "atom %d" x) true (Float.abs (freq -. p) < 0.01))
    (Qdist.support d)

let test_qdist_mixture () =
  let a = Qdist.point 1 and b = Qdist.point 2 in
  let m = Qdist.mixture ~name:"m" [ (3.0, a); (1.0, b) ] in
  let support = Array.to_list (Qdist.support m) in
  checkf "3:1 mix" 0.75 (List.assoc 1 support);
  checkf "3:1 mix other" 0.25 (List.assoc 2 support)

let test_qdist_pos_neg () =
  let d = Qdist.pos_neg ~pos:[| 1; 2 |] ~neg:[| 3; 4; 5; 6 |] ~p_pos:0.5 in
  let support = Array.to_list (Qdist.support d) in
  checkf "positive atom" 0.25 (List.assoc 1 support);
  checkf "negative atom" 0.125 (List.assoc 3 support)

let test_qdist_entropy () =
  checkf "uniform 4" 2.0 (Qdist.entropy (Qdist.uniform ~name:"u" [| 1; 2; 3; 4 |]));
  checkf "point" 0.0 (Qdist.entropy (Qdist.point 9))

let test_qdist_rejects_bad_weights () =
  Alcotest.check_raises "zero weight" (Invalid_argument "Qdist: weights must be positive")
    (fun () -> ignore (Qdist.weighted ~name:"w" [| (1, 0.0) |]))

(* ------------------------------------------------------------------ *)
(* Contention                                                           *)
(* ------------------------------------------------------------------ *)

(* A toy structure with a known contention profile: query x probes cell
   0 always (step 0) then cell x (step 1). *)
let toy_spec x = [| Spec.Point 0; Spec.Point x |]

let test_exact_toy () =
  let d = Qdist.uniform ~name:"u" [| 1; 2; 3; 4 |] in
  let r = Contention.exact ~cells:5 ~qdist:d ~spec:toy_spec in
  checkf "hot cell" 1.0 r.per_cell.(0);
  checkf "data cell" 0.25 r.per_cell.(1);
  checkf "max total" 1.0 r.max_total;
  checkf "mean probes" 2.0 r.mean_probes;
  checkf "step 0 max" 1.0 r.per_step_max.(0);
  checkf "step 1 max" 0.25 r.per_step_max.(1);
  checkf "normalized" 5.0 (Contention.normalized_max r)

let test_exact_stride_aggregation () =
  (* Two queries sharing a full-row stride pattern must pool mass. *)
  let spec _ = [| Spec.Stride { base = 0; stride = 1; count = 10 } |] in
  let d = Qdist.uniform ~name:"u" [| 1; 2 |] in
  let r = Contention.exact ~cells:10 ~qdist:d ~spec in
  Array.iter (fun phi -> checkf "flat 1/10" 0.1 phi) r.per_cell

let test_exact_shorter_plans () =
  (* Query 1 has 2 steps, query 2 has 1: mean probes is the mixture. *)
  let spec x = if x = 1 then [| Spec.Point 0; Spec.Point 1 |] else [| Spec.Point 0 |] in
  let d = Qdist.uniform ~name:"u" [| 1; 2 |] in
  let r = Contention.exact ~cells:2 ~qdist:d ~spec in
  checkf "mean probes" 1.5 r.mean_probes;
  checkf "cell 1" 0.5 r.per_cell.(1)

let test_exact_sums_to_mean_probes () =
  let rng = Rng.create 6 in
  let spec x =
    [|
      Spec.Stride { base = 0; stride = 1; count = 20 };
      Spec.Point (x mod 20);
    |]
  in
  let d = Qdist.uniform ~name:"u" (Array.init 10 (fun i -> i + (Rng.int rng 3 * 0))) in
  let r = Contention.exact ~cells:20 ~qdist:d ~spec in
  let total = Array.fold_left ( +. ) 0.0 r.per_cell in
  checkb "sum Phi = mean probes" true (Float.abs (total -. r.mean_probes) < 1e-9)

let test_mc_matches_exact () =
  (* Toy structure over a real table: cell 0, then cell x. *)
  let table = Table.create ~cells:5 ~bits:8 () in
  let mem ~probe _rng x =
    ignore (probe ~step:0 0 : int);
    ignore (probe ~step:1 x : int);
    true
  in
  let d = Qdist.uniform ~name:"u" [| 1; 2; 3; 4 |] in
  let rng = Rng.create 7 in
  let r = Contention.monte_carlo ~table ~qdist:d ~mem ~rng ~queries:20_000 in
  checkf "hot cell exact" 1.0 r.per_cell.(0);
  checkb "data cell near 1/4" true (Float.abs (r.per_cell.(1) -. 0.25) < 0.02);
  checkb "mean probes" true (Float.abs (r.mean_probes -. 2.0) < 1e-9)

let test_profile_sorted () =
  let d = Qdist.uniform ~name:"u" [| 1; 2 |] in
  let r = Contention.exact ~cells:5 ~qdist:d ~spec:toy_spec in
  let prof = Contention.profile r in
  checki "profile length" 5 (Array.length prof);
  for i = 1 to 4 do
    checkb "descending" true (prof.(i - 1) >= prof.(i))
  done;
  checkf "head is normalized max" (Contention.normalized_max r) prof.(0)

(* ------------------------------------------------------------------ *)
(* Concurrency                                                          *)
(* ------------------------------------------------------------------ *)

let test_concurrency_hot_cell () =
  (* Every query hits cell 0 at step 0 -> hotspot = m, always. *)
  let d = Qdist.uniform ~name:"u" [| 1; 2; 3 |] in
  let rng = Rng.create 8 in
  let stats =
    Concurrency.simulate ~rng ~cells:5 ~qdist:d ~spec:toy_spec ~m:16 ~trials:10
  in
  checkf "hotspot = m" 16.0 stats.mean_hotspot;
  checki "max" 16 stats.max_hotspot

let test_concurrency_spread () =
  (* A perfectly spread single probe: hotspot far below m. *)
  let spec _ = [| Spec.Stride { base = 0; stride = 1; count = 1000 } |] in
  let d = Qdist.uniform ~name:"u" [| 1 |] in
  let rng = Rng.create 9 in
  let stats = Concurrency.simulate ~rng ~cells:1000 ~qdist:d ~spec ~m:64 ~trials:20 in
  checkb "hotspot small" true (stats.mean_hotspot < 6.0);
  checkb "hotspot at least 1" true (stats.mean_hotspot >= 1.0)

let test_concurrency_round_count () =
  let d = Qdist.uniform ~name:"u" [| 1; 2 |] in
  let rng = Rng.create 10 in
  let stats = Concurrency.simulate ~rng ~cells:5 ~qdist:d ~spec:toy_spec ~m:4 ~trials:5 in
  checki "two rounds" 2 (Array.length stats.mean_round_hotspot)

let test_async_degenerates_to_lockstep () =
  (* spread = 1: identical model to lock-step on a deterministic plan. *)
  let d = Qdist.uniform ~name:"u" [| 1; 2; 3 |] in
  let rng = Rng.create 11 in
  let stats =
    Concurrency.simulate_async ~rng ~cells:5 ~qdist:d ~spec:toy_spec ~m:16 ~spread:1 ~trials:10
  in
  checkf "hotspot = m" 16.0 stats.mean_hotspot

let test_async_staggering_thins_hot_cell () =
  (* With a large spread, at most a few of the m queries are probing the
     shared cell in the same slot. *)
  let d = Qdist.uniform ~name:"u" [| 1; 2; 3 |] in
  let rng = Rng.create 12 in
  let stats =
    Concurrency.simulate_async ~rng ~cells:5 ~qdist:d ~spec:toy_spec ~m:64 ~spread:256
      ~trials:10
  in
  checkb
    (Printf.sprintf "hotspot %.1f well below m" stats.mean_hotspot)
    true
    (stats.mean_hotspot < 16.0);
  checkb "still at least 1" true (stats.mean_hotspot >= 1.0)

let test_async_validates () =
  let d = Qdist.uniform ~name:"u" [| 1 |] in
  let rng = Rng.create 13 in
  let raised =
    try
      ignore
        (Concurrency.simulate_async ~rng ~cells:5 ~qdist:d ~spec:toy_spec ~m:4 ~spread:0
           ~trials:1);
      false
    with Invalid_argument _ -> true
  in
  checkb "spread >= 1 enforced" true raised

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_exact_total_mass =
  QCheck.Test.make ~name:"sum_j Phi_t(j) = 1 per step (full-length plans)" ~count:100
    QCheck.(int_range 1 20)
    (fun nq ->
      let queries = Array.init nq (fun i -> i) in
      let spec x =
        [| Spec.Point (x mod 7); Spec.Stride { base = 0; stride = 1; count = 7 } |]
      in
      let d = Qdist.uniform ~name:"u" queries in
      let r = Contention.exact ~cells:7 ~qdist:d ~spec in
      let total = Array.fold_left ( +. ) 0.0 r.per_cell in
      Float.abs (total -. 2.0) < 1e-9)

let prop_mc_exact_agree =
  QCheck.Test.make ~name:"Monte-Carlo contention ~= exact on random toy structures" ~count:10
    QCheck.(int_range 2 8)
    (fun nq ->
      let cells = 16 in
      let table = Table.create ~cells ~bits:8 () in
      let spec x =
        [| Spec.Point (x mod cells); Spec.Stride { base = 0; stride = 2; count = 5 } |]
      in
      let mem ~probe rng x =
        Array.iteri (fun step st -> ignore (probe ~step (Spec.sample_step rng st) : int)) (spec x);
        true
      in
      let d = Qdist.uniform ~name:"u" (Array.init nq (fun i -> i)) in
      let rng = Rng.create (nq * 131) in
      let ex = Contention.exact ~cells ~qdist:d ~spec in
      let mc = Contention.monte_carlo ~table ~qdist:d ~mem ~rng ~queries:30_000 in
      let ok = ref true in
      for j = 0 to cells - 1 do
        if Float.abs (ex.per_cell.(j) -. mc.per_cell.(j)) > 0.03 then ok := false
      done;
      !ok)

(* The sampler without a guide table: one binary search over the whole
   CDF, rebuilt from [support] the way [Qdist.make] builds it. *)
let reference_sampler d =
  let support = Qdist.support d in
  let cdf = Array.make (Array.length support) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (_, p) ->
      acc := !acc +. p;
      cdf.(i) <- !acc)
    support;
  cdf.(Array.length cdf - 1) <- 1.0;
  fun rng ->
    let u = Rng.float rng in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    fst support.(!lo)

(* A distribution drawn from [seed]: random positive weights; weights
   spread from 1e-300 to 1, which leave long flat runs in the CDF; a
   single point; or Zipf at a random skew. *)
let qdist_of_case (family, seed) =
  let rng = Rng.create seed in
  let size = 1 + Rng.int rng 3000 in
  let keys = Array.init size (fun i -> (7 * i) + Rng.int rng 7) in
  match family with
  | 0 -> Qdist.weighted ~name:"w" (Array.map (fun x -> (x, 1e-9 +. Rng.float rng)) keys)
  | 1 ->
    Qdist.weighted ~name:"tiny"
      (Array.map (fun x -> (x, Float.pow 10.0 (-.float_of_int (Rng.int rng 301)))) keys)
  | 2 -> Qdist.point keys.(0)
  | _ -> Qdist.zipf ~skew:(3.0 *. Rng.float rng) keys

let prop_sample_matches_binary_search =
  QCheck.Test.make ~name:"Qdist.sample = full binary search, draw for draw" ~count:200
    QCheck.(pair (int_range 0 3) (int_bound 1_000_000))
    (fun case ->
      let d = qdist_of_case case in
      let reference = reference_sampler d in
      let rng = Rng.create (snd case) in
      let ref_rng = Rng.copy rng in
      let ok = ref true in
      for _ = 1 to 2000 do
        if Qdist.sample d rng <> reference ref_rng then ok := false
      done;
      !ok)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lc_cellprobe"
    [
      ( "table",
        [
          Alcotest.test_case "read/write" `Quick test_table_rw;
          Alcotest.test_case "bits enforced" `Quick test_table_bits_enforced;
          Alcotest.test_case "sentinel allowed" `Quick test_table_sentinel_allowed;
          Alcotest.test_case "corrupt changes a cell" `Quick test_table_corrupt_changes;
          Alcotest.test_case "bits_for" `Quick test_bits_for;
        ] );
      ( "spec",
        [
          Alcotest.test_case "point" `Quick test_spec_point;
          Alcotest.test_case "stride" `Quick test_spec_stride;
          Alcotest.test_case "probabilities sum" `Quick test_spec_probabilities_sum;
          Alcotest.test_case "sample in support" `Quick test_spec_sample_in_support;
          Alcotest.test_case "validate" `Quick test_spec_validate;
          Alcotest.test_case "max step probability" `Quick test_spec_max_step_probability;
        ] );
      ( "qdist",
        [
          Alcotest.test_case "uniform" `Quick test_qdist_uniform;
          Alcotest.test_case "merges duplicates" `Quick test_qdist_merges_duplicates;
          Alcotest.test_case "point" `Quick test_qdist_point;
          Alcotest.test_case "zipf ranks" `Quick test_qdist_zipf_ranks;
          Alcotest.test_case "zipf zero uniform" `Quick test_qdist_zipf_zero_is_uniform;
          Alcotest.test_case "sampling matches pmf" `Slow test_qdist_sampling_matches_pmf;
          Alcotest.test_case "mixture" `Quick test_qdist_mixture;
          Alcotest.test_case "pos_neg" `Quick test_qdist_pos_neg;
          Alcotest.test_case "entropy" `Quick test_qdist_entropy;
          Alcotest.test_case "rejects bad weights" `Quick test_qdist_rejects_bad_weights;
        ] );
      ( "contention",
        [
          Alcotest.test_case "exact toy" `Quick test_exact_toy;
          Alcotest.test_case "stride aggregation" `Quick test_exact_stride_aggregation;
          Alcotest.test_case "shorter plans" `Quick test_exact_shorter_plans;
          Alcotest.test_case "mass identity" `Quick test_exact_sums_to_mean_probes;
          Alcotest.test_case "mc matches exact" `Slow test_mc_matches_exact;
          Alcotest.test_case "profile sorted" `Quick test_profile_sorted;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "hot cell" `Quick test_concurrency_hot_cell;
          Alcotest.test_case "spread" `Quick test_concurrency_spread;
          Alcotest.test_case "round count" `Quick test_concurrency_round_count;
          Alcotest.test_case "async spread=1 is lock-step" `Quick
            test_async_degenerates_to_lockstep;
          Alcotest.test_case "async staggering thins hot cell" `Quick
            test_async_staggering_thins_hot_cell;
          Alcotest.test_case "async validates" `Quick test_async_validates;
        ] );
      qsuite "properties"
        [ prop_exact_total_mass; prop_mc_exact_agree; prop_sample_matches_binary_search ];
    ]
