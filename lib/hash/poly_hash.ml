module Rng = Lc_prim.Rng
module Modarith = Lc_prim.Modarith

type t = { p : int; m : int; coeffs : int array }

let create rng ~d ~p ~m =
  if d < 1 then invalid_arg "Poly_hash.create: d must be >= 1";
  Modarith.check_modulus p;
  if m < 1 then invalid_arg "Poly_hash.create: range must be >= 1";
  { p; m; coeffs = Array.init d (fun _ -> Rng.int rng p) }

let of_coeffs ~p ~m coeffs =
  Modarith.check_modulus p;
  if m < 1 then invalid_arg "Poly_hash.of_coeffs: range must be >= 1";
  if Array.length coeffs = 0 then invalid_arg "Poly_hash.of_coeffs: no coefficients";
  Array.iter
    (fun c -> if c < 0 || c >= p then invalid_arg "Poly_hash.of_coeffs: coefficient out of field")
    coeffs;
  { p; m; coeffs = Array.copy coeffs }

let eval_field h x = Modarith.poly_eval h.p h.coeffs x

let eval h x = eval_field h x mod h.m

(* [Modarith.poly_eval] over a slice, checking each coefficient as
   [of_coeffs] does. *)
let eval_words ~p ~m words ~pos ~d x =
  let x = x mod p in
  let acc = ref 0 in
  for i = pos + d - 1 downto pos do
    let c = words.(i) in
    if c < 0 || c >= p then invalid_arg "Poly_hash.eval_words: coefficient out of field";
    acc := Modarith.add p (Modarith.mul p !acc x) c
  done;
  !acc mod m

let d h = Array.length h.coeffs
let range h = h.m
let modulus h = h.p
let coeffs h = Array.copy h.coeffs

let reduce h m' =
  if m' < 1 || h.m mod m' <> 0 then
    invalid_arg "Poly_hash.reduce: new range must divide the old range";
  { h with m = m' }
