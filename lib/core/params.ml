module Primes = Lc_prim.Primes
module Table = Lc_cellprobe.Table

type t = {
  universe : int;
  n : int;
  p : int;
  d : int;
  delta : float;
  c : float;
  alpha : float;
  beta : int;
  r : int;
  m : int;
  s : int;
  g_per_group : int;
  cell_bits : int;
  cap_g : int;
  cap_group : int;
  rho : int;
}

let default_c = 2.0 *. Float.exp 1.0

let make ?(d = 3) ?(delta = 0.5) ?(c = default_c) ?(alpha = 2.0) ?(beta = 2) ~universe ~n () =
  if n < 1 then invalid_arg "Params.make: n must be >= 1";
  if universe < n then invalid_arg "Params.make: universe smaller than n";
  if d <= 2 then invalid_arg "Params.make: d must be > 2";
  let lo = 2.0 /. float_of_int (d + 2) and hi = 1.0 -. (1.0 /. float_of_int d) in
  if delta <= lo || delta >= hi then
    invalid_arg
      (Printf.sprintf "Params.make: delta must lie in (%g, %g) for d = %d" lo hi d);
  if c <= Float.exp 1.0 then invalid_arg "Params.make: c must exceed e";
  let alpha_min = float_of_int d /. (c *. (Float.log c -. 1.0)) in
  if alpha <= alpha_min then
    invalid_arg (Printf.sprintf "Params.make: alpha must exceed %g" alpha_min);
  if beta < 2 then invalid_arg "Params.make: beta must be >= 2";
  let p = Primes.prime_for_universe universe in
  let fn = float_of_int n in
  let r = max 1 (int_of_float (Float.ceil (Float.pow fn (1.0 -. delta)))) in
  let m =
    if n < 3 then 1
    else max 1 (min n (int_of_float (Float.round (fn /. (alpha *. Float.log fn)))))
  in
  (* Smallest multiple of m at least beta * n. *)
  let s = ((beta * n + m - 1) / m) * m in
  let g_per_group = s / m in
  let cap_g = int_of_float (Float.ceil (c *. fn /. float_of_int r)) in
  let cap_group = int_of_float (Float.ceil (c *. fn /. float_of_int m)) in
  (* A group histogram encodes g_per_group unary runs totalling at most
     cap_group ones, so it needs cap_group + g_per_group bits. *)
  let addr_bits = Table.bits_for s in
  let key_bits = Table.bits_for (max (universe - 1) (p - 1)) in
  let cell_bits = max addr_bits key_bits in
  let hist_bits = cap_group + g_per_group in
  let rho = (hist_bits + cell_bits - 1) / cell_bits in
  (* Histogram.locate packs a slot offset and length into 31 bits each.
     A load is at most cap_group and the loads sum to less than
     rho * cell_bits, so both stay below cap_group * rho * cell_bits. *)
  if cap_group > (1 lsl 31) / (rho * cell_bits) then
    invalid_arg "Params.make: group histogram too large to locate a slot in 31 bits";
  {
    universe;
    n;
    p;
    d;
    delta;
    c;
    alpha;
    beta;
    r;
    m;
    s;
    g_per_group;
    cell_bits;
    cap_g;
    cap_group;
    rho;
  }

let rows t = (2 * t.d) + t.rho + 4
let total_cells t = rows t * t.s
let max_probes t = (2 * t.d) + t.rho + 4

let pp fmt t =
  Format.fprintf fmt
    "@[<v>n = %d, universe = %d, p = %d@,d = %d, delta = %g, c = %g, alpha = %g, beta = %d@,\
     r = %d, m = %d, s = %d, buckets/group = %d@,\
     cell bits = %d, caps: g <= %d, group <= %d, rho = %d, rows = %d@]"
    t.n t.universe t.p t.d t.delta t.c t.alpha t.beta t.r t.m t.s t.g_per_group t.cell_bits
    t.cap_g t.cap_group t.rho (rows t)
