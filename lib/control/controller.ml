module Heavy = Lc_obs.Heavy
module Journal = Lc_obs.Journal

type decision = {
  d_id : int;
  d_window : int;
  d_ratio : float;
  d_cell : int;
  d_count : int;
  d_err : int;
  d_score : int;
  d_action : [ `Raise | `Lower ];
  d_old_boost : int;
  d_new_boost : int;
  d_cooldown : int;
}

(* Observing-domain-owned state (single writer: the monitor domain calls
   [observe]); the scrape-side accessors read [decisions_rev] and the
   scalars racily, which is safe for the same reason journal dumps are —
   immutable cons cells behind one mutable head. *)
type t = {
  policy : Policy.t;
  c_space : int;
  c_max_probes : int;
  base : int;
  journal : (Journal.t * int) option;
  mutable actuate : (id:int -> boost:int -> unit) option;
  mutable applied : (unit -> int) option;
  mutable prev_top : (int * (int * int)) list;  (* cell -> (estimate, err) *)
  mutable decisions_rev : decision list;
  mutable n_decisions : int;
  mutable n_windows : int;
  mutable c_last_ratio : float;
}

let create ?policy ?journal ~space ~max_probes ~boost () =
  if space <= 0 || max_probes <= 0 then
    invalid_arg "Controller.create: space and max_probes must be positive";
  {
    policy = Policy.create ?config:policy ~boost ();
    c_space = space;
    c_max_probes = max_probes;
    base = boost;
    journal;
    actuate = None;
    applied = None;
    prev_top = [];
    decisions_rev = [];
    n_decisions = 0;
    n_windows = 0;
    c_last_ratio = 0.0;
  }

let set_actuator t f = t.actuate <- Some f
let set_applied_reader t f = t.applied <- Some f

(* The hottest cell by *windowed* tally. A space-saving counter
   increments exactly while its cell stays resident, and [err] is
   frozen at entry — so when a cell appears in both snapshots with the
   same [err], the count delta is the window's tally exactly. On entry
   or re-entry ([err] changed) only the guaranteed lower bound
   [count - err] minus the previous estimate is available; under churn
   that is near zero, which is correct — a cell that cannot hold a
   sketch slot is not the contention story of the window. *)
let windowed_evidence prev top =
  List.fold_left
    (fun acc (e : Heavy.entry) ->
      let w =
        match List.assoc_opt e.item prev with
        | Some (pc, pe) when pe = e.err -> max 0 (e.count - pc)
        | Some (pc, _) -> max 0 (e.count - e.err - pc)
        | None -> max 0 (e.count - e.err)
      in
      match acc with
      | Some (_, best, _, _) when best >= w -> acc
      | _ -> Some (e.item, w, e.count, e.err))
    None top

let decision_codec =
  Lc_obs.Codec.(
    obj (fun d_id d_window d_ratio d_cell d_count d_err d_score d_action d_old_boost d_new_boost
             d_cooldown ->
        { d_id; d_window; d_ratio; d_cell; d_count; d_err; d_score; d_action; d_old_boost;
          d_new_boost; d_cooldown })
    |> field "id" (fun d -> d.d_id) int
    |> field "window" (fun d -> d.d_window) int
    |> field "ratio" (fun d -> d.d_ratio) float
    |> field "cell" (fun d -> d.d_cell) int
    |> field "count" (fun d -> d.d_count) int
    |> field "err" (fun d -> d.d_err) int
    |> field "score" (fun d -> d.d_score) int
    |> field "action" (fun d -> d.d_action) (enum [ ("raise", `Raise); ("lower", `Lower) ])
    |> field "old_boost" (fun d -> d.d_old_boost) int
    |> field "new_boost" (fun d -> d.d_new_boost) int
    |> field "cooldown" (fun d -> d.d_cooldown) int
    |> seal)

let observe t ~window ~queries top =
  t.n_windows <- t.n_windows + 1;
  let cell, wtally, count, err =
    match windowed_evidence t.prev_top top with
    | Some (c, w, cnt, e) -> (c, w, cnt, e)
    | None -> (-1, 0, 0, 0)
  in
  t.prev_top <- List.map (fun (e : Heavy.entry) -> (e.item, (e.count, e.err))) top;
  let flat =
    float_of_int queries *. float_of_int t.c_max_probes /. float_of_int t.c_space
  in
  let ratio = if flat > 0.0 then float_of_int wtally /. flat else 0.0 in
  t.c_last_ratio <- ratio;
  match Policy.step t.policy ~ratio with
  | Policy.Hold -> None
  | Policy.Raise { from_boost; to_boost; score }
  | Policy.Lower { from_boost; to_boost; score } ->
    let action = if to_boost > from_boost then `Raise else `Lower in
    let id = t.n_decisions + 1 in
    let d =
      {
        d_id = id;
        d_window = window;
        d_ratio = ratio;
        d_cell = cell;
        d_count = count;
        d_err = err;
        d_score = score;
        d_action = action;
        d_old_boost = from_boost;
        d_new_boost = to_boost;
        d_cooldown = Policy.cooldown t.policy;
      }
    in
    t.decisions_rev <- d :: t.decisions_rev;
    t.n_decisions <- id;
    (match t.journal with
    | None -> ()
    | Some (j, writer) ->
      Journal.record j ~writer
        (Journal.Control_decision
           {
             id;
             window;
             ratio;
             cell;
             count;
             err;
             score;
             action;
             old_boost = from_boost;
             new_boost = to_boost;
             cooldown = d.d_cooldown;
           }));
    (match t.actuate with None -> () | Some f -> f ~id ~boost:to_boost);
    Some d

let decisions t = List.rev t.decisions_rev
let decisions_total t = t.n_decisions
let windows_seen t = t.n_windows
let last_ratio t = t.c_last_ratio
let score t = Policy.score t.policy
let cooldown t = Policy.cooldown t.policy
let target_boost t = Policy.boost t.policy
let applied_boost t = match t.applied with Some f -> f () | None -> Policy.boost t.policy
let base_boost t = t.base
let policy_config t = Policy.config t.policy
let space t = t.c_space
let max_probes t = t.c_max_probes
