(* Unit and property tests for the lc_prim substrate. *)

module Rng = Lc_prim.Rng
module Primes = Lc_prim.Primes
module Modarith = Lc_prim.Modarith
module Bitpack = Lc_prim.Bitpack

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  checkb "different seeds diverge" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues the same stream" (Rng.next_int64 a) (Rng.next_int64 b);
  ignore (Rng.next_int64 a);
  (* advancing a does not advance b *)
  let a2 = Rng.next_int64 a and b2 = Rng.next_int64 b in
  checkb "streams now out of phase" true (a2 <> b2)

let test_rng_split_diverges () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  checkb "split streams differ" true (!same < 4)

(* The stream itself, pinned: seed 0 against the published SplitMix64
   vector, and for seeds 1 and 42 the first draws of [int] at bounds 1,
   2^20, 8364, 2^61 + 1 (which rejects about half its candidates) and
   2^62 - 1, of [float], and of a [split] child. Only the goldens would
   otherwise notice a changed draw, and only at the bounds the
   experiments use. *)
let test_rng_stream_pinned () =
  let g = Rng.create 0 in
  List.iter
    (fun v -> check Alcotest.int64 "SplitMix64 seed 0" v (Rng.next_int64 g))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  let ints seed bound =
    let g = Rng.create seed in
    List.init 3 (fun _ -> Rng.int g bound)
  in
  let floats seed =
    let g = Rng.create seed in
    List.init 2 (fun _ -> Rng.float g)
  in
  let child seed =
    let c = Rng.split (Rng.create seed) in
    List.init 2 (fun _ -> Rng.next_int64 c)
  in
  let check_ints name seed bound expected =
    check Alcotest.(list int) (Printf.sprintf "seed %d int %s" seed name) expected (ints seed bound)
  in
  let ints_at =
    [
      ("1", 1); ("2^20", 1 lsl 20); ("8364", 8364); ("2^61+1", (1 lsl 61) + 1);
      ("2^62-1", (1 lsl 62) - 1);
    ]
  in
  List.iter2
    (fun (name, bound) expected -> check_ints name 1 bound expected)
    ints_at
    [
      [ 0; 0; 0 ];
      [ 38704; 244505; 824663 ];
      [ 6628; 4789; 4411 ];
      [ 2049245188455445058; 2048809309281742190; 1316676407973089130 ];
      [ 2612804094800205616; 3439311302766607129; 4477959822570722647 ];
    ];
  List.iter2
    (fun (name, bound) expected -> check_ints name 42 bound expected)
    ints_at
    [
      [ 0; 0; 0 ];
      [ 711589; 638016; 255956 ];
      [ 2961; 3100; 4540 ];
      [ 737456523031723072; 1284820937115690964; 1587299515064563941 ];
      [ 3419864383188818853; 737456523031723072; 1284820937115690964 ];
    ];
  check Alcotest.(list (float 0.0)) "seed 1 float" [ 0x1.22145bd91204cp-1; 0x1.7dd71b42cb1dep-1 ]
    (floats 1);
  check Alcotest.(list (float 0.0)) "seed 42 float" [ 0x1.7bae644c5fd6ep-1; 0x1.477f199d93378p-3 ]
    (floats 42);
  check Alcotest.(list int64) "seed 1 split child" [ 0x5E41AB087439611EL; 0xF18D6CE93D6CF1EEL ]
    (child 1);
  check Alcotest.(list int64) "seed 42 split child" [ 0x57E1FABA65107204L; 0xF4ABD143FEB24055L ]
    (child 42)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for bound = 1 to 50 do
    for _ = 1 to 50 do
      let v = Rng.int rng bound in
      checkb "in range" true (v >= 0 && v < bound)
    done
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_uniformity () =
  let rng = Rng.create 13 in
  let bound = 10 in
  let counts = Array.make bound 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int trials /. float_of_int bound in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      checkb (Printf.sprintf "bucket %d within 5%%" i) true (dev < 0.05))
    counts

let test_rng_int_in_range () =
  let rng = Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    checkb "in [-5, 5]" true (v >= -5 && v <= 5)
  done

let test_rng_float_range () =
  let rng = Rng.create 19 in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    checkb "in [0, 1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_float_mean () =
  let rng = Rng.create 23 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  checkb "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_bool_balance () =
  let rng = Rng.create 29 in
  let heads = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr heads
  done;
  let frac = float_of_int !heads /. float_of_int n in
  checkb "fair coin" true (Float.abs (frac -. 0.5) < 0.02)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 31 in
  let a = Array.init 100 Fun.id in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" a sorted;
  checkb "actually moved" true (b <> a)

let test_rng_choose () =
  let rng = Rng.create 37 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choose rng a in
    checkb "element of array" true (Array.mem v a)
  done

let test_sample_distinct_sparse () =
  let rng = Rng.create 41 in
  let v = Rng.sample_distinct rng ~bound:1_000_000 ~count:100 in
  checki "count" 100 (Array.length v);
  let s = Array.copy v in
  Array.sort compare s;
  for i = 1 to 99 do
    checkb "distinct" true (s.(i) <> s.(i - 1))
  done

let test_sample_distinct_dense () =
  let rng = Rng.create 43 in
  let v = Rng.sample_distinct rng ~bound:100 ~count:100 in
  let s = Array.copy v in
  Array.sort compare s;
  check (Alcotest.array Alcotest.int) "full permutation" (Array.init 100 Fun.id) s

let test_sample_distinct_errors () =
  let rng = Rng.create 47 in
  Alcotest.check_raises "count > bound"
    (Invalid_argument "Rng.sample_distinct: count > bound") (fun () ->
      ignore (Rng.sample_distinct rng ~bound:5 ~count:6))

(* ------------------------------------------------------------------ *)
(* Primes                                                               *)
(* ------------------------------------------------------------------ *)

let test_is_prime_small () =
  let primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 997 ] in
  List.iter (fun p -> checkb (string_of_int p) true (Primes.is_prime p)) primes;
  let composites = [ -7; 0; 1; 4; 6; 8; 9; 15; 21; 25; 49; 91; 561; 1105 ] in
  List.iter (fun c -> checkb (string_of_int c) false (Primes.is_prime c)) composites

let test_is_prime_carmichael () =
  (* Carmichael numbers fool Fermat tests; Miller-Rabin must not be fooled. *)
  List.iter
    (fun c -> checkb (string_of_int c) false (Primes.is_prime c))
    [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041; 62745; 162401 ]

let test_is_prime_exhaustive_small () =
  let sieve = Array.make 10_000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 9999 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < 10_000 do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  for i = 0 to 9999 do
    checkb (string_of_int i) sieve.(i) (Primes.is_prime i)
  done

let test_is_prime_large () =
  checkb "2^31-1 is prime (Mersenne)" true (Primes.is_prime ((1 lsl 31) - 1));
  checkb "2^30 composite" false (Primes.is_prime (1 lsl 30));
  checkb "1073741789 prime" true (Primes.is_prime 1073741789)

let test_next_prime () =
  checki "next_prime 0" 2 (Primes.next_prime 0);
  checki "next_prime 2" 2 (Primes.next_prime 2);
  checki "next_prime 3" 3 (Primes.next_prime 3);
  checki "next_prime 4" 5 (Primes.next_prime 4);
  checki "next_prime 90" 97 (Primes.next_prime 90);
  checki "next_prime 1000" 1009 (Primes.next_prime 1000)

let test_prime_for_universe () =
  let p = Primes.prime_for_universe 1024 in
  checkb "strictly above universe" true (p > 1024);
  checkb "prime" true (Primes.is_prime p);
  checki "minimal" p (Primes.next_prime 1025)

(* ------------------------------------------------------------------ *)
(* Modarith                                                             *)
(* ------------------------------------------------------------------ *)

let test_mod_basic () =
  let p = 101 in
  checki "add" 3 (Modarith.add p 52 52);
  checki "sub wraps" 100 (Modarith.sub p 0 1);
  checki "mul" ((52 * 52) mod p) (Modarith.mul p 52 52);
  checki "pow" 1 (Modarith.pow p 7 0);
  checki "fermat" 1 (Modarith.pow p 7 (p - 1))

let test_mod_inverse () =
  let p = 1009 in
  for a = 1 to 200 do
    let inv = Modarith.inv p a in
    checki (Printf.sprintf "a=%d" a) 1 (Modarith.mul p a inv)
  done

let test_mod_inverse_zero () =
  Alcotest.check_raises "inv 0" (Invalid_argument "Modarith.inv: zero has no inverse") (fun () ->
      ignore (Modarith.inv 101 0))

let test_mod_large_no_overflow () =
  let p = (1 lsl 31) - 1 in
  let a = p - 1 and b = p - 2 in
  (* (p-1)(p-2) mod p = 2 mod p *)
  checki "no overflow" 2 (Modarith.mul p a b)

let test_poly_eval () =
  let p = 97 in
  (* 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38 *)
  checki "horner" 38 (Modarith.poly_eval p [| 3; 2; 1 |] 5);
  checki "constant" 7 (Modarith.poly_eval p [| 7 |] 55);
  checki "empty" 0 (Modarith.poly_eval p [||] 55)

let test_check_modulus () =
  Modarith.check_modulus 2;
  Modarith.check_modulus Modarith.max_modulus;
  Alcotest.check_raises "too small"
    (Invalid_argument "Modarith: modulus 1 outside [2, 2147483647]") (fun () ->
      Modarith.check_modulus 1)

(* ------------------------------------------------------------------ *)
(* Bitpack                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitpack_get_set () =
  let bp = Bitpack.create ~word_bits:7 ~bits:50 in
  for i = 0 to 49 do
    checkb "initially zero" false (Bitpack.get bp i)
  done;
  Bitpack.set bp 0 true;
  Bitpack.set bp 49 true;
  Bitpack.set bp 13 true;
  checkb "bit 0" true (Bitpack.get bp 0);
  checkb "bit 49" true (Bitpack.get bp 49);
  checkb "bit 13" true (Bitpack.get bp 13);
  checkb "bit 14" false (Bitpack.get bp 14);
  Bitpack.set bp 13 false;
  checkb "cleared" false (Bitpack.get bp 13)

let test_bitpack_bounds () =
  let bp = Bitpack.create ~word_bits:8 ~bits:10 in
  Alcotest.check_raises "index out of range" (Invalid_argument "Bitpack: bit index out of range")
    (fun () -> ignore (Bitpack.get bp 10))

let test_bitpack_fields () =
  let bp = Bitpack.create ~word_bits:9 ~bits:64 in
  Bitpack.set_field bp ~pos:3 ~width:11 1234;
  checki "round trip" 1234 (Bitpack.get_field bp ~pos:3 ~width:11);
  checki "outside untouched" 0 (Bitpack.get_field bp ~pos:14 ~width:10)

let test_bitpack_words_roundtrip () =
  let bp = Bitpack.create ~word_bits:5 ~bits:23 in
  Bitpack.set bp 0 true;
  Bitpack.set bp 7 true;
  Bitpack.set bp 22 true;
  let ws = Bitpack.words bp in
  checki "word count" 5 (Array.length ws);
  let bp2 = Bitpack.of_words ~word_bits:5 ~bits:23 ws in
  for i = 0 to 22 do
    checkb (Printf.sprintf "bit %d" i) (Bitpack.get bp i) (Bitpack.get bp2 i)
  done

let test_bitpack_unary () =
  let bp = Bitpack.create ~word_bits:6 ~bits:40 in
  let pos = Bitpack.append_unary bp ~pos:0 3 in
  checki "pos after 3" 4 pos;
  let pos = Bitpack.append_unary bp ~pos 0 in
  checki "pos after 0" 5 pos;
  let pos = Bitpack.append_unary bp ~pos 5 in
  checki "pos after 5" 11 pos;
  let v, next = Bitpack.read_unary bp ~pos:0 in
  checki "first run" 3 v;
  let v, next = Bitpack.read_unary bp ~pos:next in
  checki "second run" 0 v;
  let v, _ = Bitpack.read_unary bp ~pos:next in
  checki "third run" 5 v

let test_bitpack_unary_unterminated () =
  let bp = Bitpack.create ~word_bits:6 ~bits:4 in
  for i = 0 to 3 do
    Bitpack.set bp i true
  done;
  Alcotest.check_raises "unterminated" (Invalid_argument "Bitpack.read_unary: unterminated run")
    (fun () -> ignore (Bitpack.read_unary bp ~pos:0))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_modmul_matches_int64 =
  QCheck.Test.make ~name:"Modarith.mul agrees with Int64 arithmetic" ~count:1000
    QCheck.(triple (int_range 2 Modarith.max_modulus) (int_range 0 (1 lsl 30)) (int_range 0 (1 lsl 30)))
    (fun (p, a, b) ->
      let a = a mod p and b = b mod p in
      let expected = Int64.to_int (Int64.rem (Int64.mul (Int64.of_int a) (Int64.of_int b)) (Int64.of_int p)) in
      Modarith.mul p a b = expected)

let prop_pow_matches_repeated_mul =
  QCheck.Test.make ~name:"Modarith.pow = iterated mul" ~count:300
    QCheck.(triple (int_range 2 100_000) (int_range 0 1_000) (int_range 0 24))
    (fun (p, a, e) ->
      let a = a mod p in
      let rec iter acc k = if k = 0 then acc else iter (Modarith.mul p acc a) (k - 1) in
      Modarith.pow p a e = iter 1 e)

let prop_bitpack_field_roundtrip =
  QCheck.Test.make ~name:"Bitpack field round-trip" ~count:500
    QCheck.(triple (int_range 1 62) (int_range 0 100) (int_range 0 20))
    (fun (word_bits, pos, width) ->
      QCheck.assume (width >= 1 && width <= 30);
      let bp = Bitpack.create ~word_bits ~bits:(pos + width + 8) in
      let v = (pos * 7919) land ((1 lsl width) - 1) in
      Bitpack.set_field bp ~pos ~width v;
      Bitpack.get_field bp ~pos ~width = v)

let prop_unary_roundtrip =
  QCheck.Test.make ~name:"unary encode/decode round-trip" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 15))
    (fun loads ->
      let total = List.fold_left ( + ) 0 loads + List.length loads in
      let bp = Bitpack.create ~word_bits:13 ~bits:(total + 4) in
      let pos = List.fold_left (fun pos l -> Bitpack.append_unary bp ~pos l) 0 loads in
      ignore pos;
      let decoded =
        List.fold_left
          (fun (acc, pos) _ ->
            let v, next = Bitpack.read_unary bp ~pos in
            (v :: acc, next))
          ([], 0) loads
        |> fst |> List.rev
      in
      decoded = loads)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_distinct: distinct and in range" ~count:200
    QCheck.(pair (int_range 1 500) (int_range 0 500))
    (fun (bound, count) ->
      QCheck.assume (count <= bound);
      let rng = Rng.create (bound + (count * 7)) in
      let v = Rng.sample_distinct rng ~bound ~count in
      let s = List.sort_uniq compare (Array.to_list v) in
      List.length s = count && List.for_all (fun x -> x >= 0 && x < bound) s)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lc_prim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int uniformity" `Quick test_rng_int_uniformity;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balance;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "choose" `Quick test_rng_choose;
          Alcotest.test_case "sample_distinct sparse" `Quick test_sample_distinct_sparse;
          Alcotest.test_case "sample_distinct dense" `Quick test_sample_distinct_dense;
          Alcotest.test_case "sample_distinct errors" `Quick test_sample_distinct_errors;
        ] );
      ( "primes",
        [
          Alcotest.test_case "small primes and composites" `Quick test_is_prime_small;
          Alcotest.test_case "carmichael numbers" `Quick test_is_prime_carmichael;
          Alcotest.test_case "exhaustive below 10000" `Quick test_is_prime_exhaustive_small;
          Alcotest.test_case "large primes" `Quick test_is_prime_large;
          Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "prime_for_universe" `Quick test_prime_for_universe;
        ] );
      ( "modarith",
        [
          Alcotest.test_case "basic ops" `Quick test_mod_basic;
          Alcotest.test_case "inverse" `Quick test_mod_inverse;
          Alcotest.test_case "inverse of zero" `Quick test_mod_inverse_zero;
          Alcotest.test_case "no overflow at max modulus" `Quick test_mod_large_no_overflow;
          Alcotest.test_case "poly_eval" `Quick test_poly_eval;
          Alcotest.test_case "check_modulus" `Quick test_check_modulus;
        ] );
      ( "bitpack",
        [
          Alcotest.test_case "get/set" `Quick test_bitpack_get_set;
          Alcotest.test_case "bounds" `Quick test_bitpack_bounds;
          Alcotest.test_case "fields" `Quick test_bitpack_fields;
          Alcotest.test_case "words round-trip" `Quick test_bitpack_words_roundtrip;
          Alcotest.test_case "unary runs" `Quick test_bitpack_unary;
          Alcotest.test_case "unterminated unary" `Quick test_bitpack_unary_unterminated;
        ] );
      qsuite "properties"
        [
          prop_modmul_matches_int64;
          prop_pow_matches_repeated_mul;
          prop_bitpack_field_roundtrip;
          prop_unary_roundtrip;
          prop_sample_distinct;
        ];
    ]
