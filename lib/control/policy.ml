type config = {
  high_ratio : float;
  low_ratio : float;
  hot_contrib : int;
  cool_contrib : int;
  high_threshold : int;
  low_threshold : int;
  cooldown_windows : int;
  min_boost : int;
  max_boost : int;
  step : int;
}

(* The lock_statistics constants, kept asymmetric on purpose: 250 per
   contended event against ±1000 trip points means four bad windows
   trip a raise, while quiet windows bleed only 25 — a decay step every
   forty. The asymmetry is load-bearing, not conservatism: once
   replication splits a hot cell's traffic [step] ways, each replica's
   share can fall below the sketch's retention floor (about 1/k of the
   probe stream), where a genuinely quiet stream and a successfully
   suppressed crowd are indistinguishable. The only safe decay under
   that floor is a slow probe: lower rarely, and let the fast raise
   path re-absorb the crowd within a few windows if the lowering
   flares. The ratio band must also be multiplicatively wider than the
   boost step (8.0 / 1.5 > 4), or no stable boost exists inside it. *)
let default =
  {
    high_ratio = 8.0;
    low_ratio = 1.5;
    hot_contrib = 250;
    cool_contrib = 25;
    high_threshold = 1000;
    low_threshold = -1000;
    cooldown_windows = 2;
    min_boost = 1;
    max_boost = 4096;
    step = 4;
  }

let codec =
  Lc_obs.Codec.(
    obj (fun high_ratio low_ratio hot_contrib cool_contrib high_threshold low_threshold
             cooldown_windows min_boost max_boost step ->
        { high_ratio; low_ratio; hot_contrib; cool_contrib; high_threshold; low_threshold;
          cooldown_windows; min_boost; max_boost; step })
    |> field "high_ratio" (fun c -> c.high_ratio) float
    |> field "low_ratio" (fun c -> c.low_ratio) float
    |> field "hot_contrib" (fun c -> c.hot_contrib) int
    |> field "cool_contrib" (fun c -> c.cool_contrib) int
    |> field "high_threshold" (fun c -> c.high_threshold) int
    |> field "low_threshold" (fun c -> c.low_threshold) int
    |> field "cooldown_windows" (fun c -> c.cooldown_windows) int
    |> field "min_boost" (fun c -> c.min_boost) int
    |> field "max_boost" (fun c -> c.max_boost) int
    |> field "step" (fun c -> c.step) int
    |> seal)

type action =
  | Raise of { from_boost : int; to_boost : int; score : int }
  | Lower of { from_boost : int; to_boost : int; score : int }
  | Hold

type t = {
  c : config;
  mutable sc : int;
  mutable cd : int;
  mutable b : int;
}

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let create ?(config = default) ~boost () =
  let c = config in
  if not (is_power_of_two c.min_boost && is_power_of_two c.max_boost) then
    invalid_arg "Policy.create: min/max boost must be powers of two";
  if c.min_boost > c.max_boost then invalid_arg "Policy.create: min_boost > max_boost";
  if not (is_power_of_two c.step && c.step > 1) then
    invalid_arg "Policy.create: step must be a power of two > 1";
  if c.hot_contrib <= 0 || c.cool_contrib <= 0 then
    invalid_arg "Policy.create: contributions must be positive";
  if c.high_threshold <= 0 || c.low_threshold >= 0 then
    invalid_arg "Policy.create: thresholds must straddle zero";
  if c.low_ratio < 0.0 || c.high_ratio <= c.low_ratio then
    invalid_arg "Policy.create: need 0 <= low_ratio < high_ratio";
  if not (is_power_of_two boost) then
    invalid_arg "Policy.create: boost must be a power of two";
  { c; sc = 0; cd = 0; b = min c.max_boost (max c.min_boost boost) }

let step t ~ratio =
  let c = t.c in
  (* Sense: saturating score accumulation, dead band between the
     ratios. *)
  if ratio >= c.high_ratio then t.sc <- min c.high_threshold (t.sc + c.hot_contrib)
  else if ratio <= c.low_ratio then t.sc <- max c.low_threshold (t.sc - c.cool_contrib);
  (* Decide: cooldown absorbs trips; a trip resets score and re-arms the
     cooldown, so actions are provably >= cooldown_windows + 1 apart. *)
  if t.cd > 0 then begin
    t.cd <- t.cd - 1;
    Hold
  end
  else if t.sc >= c.high_threshold && t.b < c.max_boost then begin
    let from_boost = t.b in
    let score = t.sc in
    t.b <- min c.max_boost (t.b * c.step);
    t.sc <- 0;
    t.cd <- c.cooldown_windows;
    Raise { from_boost; to_boost = t.b; score }
  end
  else if t.sc <= c.low_threshold && t.b > c.min_boost then begin
    let from_boost = t.b in
    let score = t.sc in
    t.b <- max c.min_boost (t.b / c.step);
    t.sc <- 0;
    t.cd <- c.cooldown_windows;
    Lower { from_boost; to_boost = t.b; score }
  end
  else Hold

let score t = t.sc
let cooldown t = t.cd
let boost t = t.b
let config t = t.c
