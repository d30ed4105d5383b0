(* Postmortem artifacts: what the flight recorder dumps when the
   hotspot alert fires. The dump freezes three things the moment the
   quiet->firing edge is seen — the window ring, the journal rings, and
   the alert state — together with the same environment fingerprint a
   bench artifact carries, so "what led up to this alert" can be
   answered offline, from the JSON alone, long after the process is
   gone. *)

module Codec = Lc_obs.Codec
module Journal = Lc_obs.Journal
module Window = Lc_obs.Window
module Controller = Lc_control.Controller

let schema_name = "lowcon-postmortem"
let schema_version = 1

type trigger = { index : int; ratio : float; factor : float }
type alert_state = { active : bool; firing_run : int; fired_total : int }

type t = {
  fingerprint : Artifact.fingerprint;
  structure : string;
  workload : string;
  domains : int;
  alert_factor : float;
  trigger : trigger;
  windows : Window.entry list;
  events : Journal.event list;
  dropped : int;
  alert : alert_state;
}

let capture ~fingerprint ~structure ~workload ~domains ~trigger:(e : Window.entry) mon =
  let w = Lc_parallel.Engine.Monitor.window mon in
  let factor = (Window.config w).Window.alert_factor in
  let events, dropped =
    match Lc_parallel.Engine.Monitor.journal mon with
    | None -> ([], 0)
    | Some j -> (Journal.events j, Journal.dropped j)
  in
  {
    fingerprint;
    structure;
    workload;
    domains;
    alert_factor = factor;
    trigger = { index = e.Window.index; ratio = e.Window.hotspot_ratio; factor };
    windows = Window.entries w;
    events;
    dropped;
    alert =
      {
        active = Window.alert_active w;
        firing_run = Window.alert_firing_run w;
        fired_total = Window.alert_fired_total w;
      };
  }

(* ---------------- the document ---------------- *)

(* Journal kinds carry inline records; each case projects its payload
   into a tuple (or, for a controller decision, the controller's own
   record, whose codec /control.json shares) and back. *)
let kind_codec =
  let open Codec in
  let window_cut =
    obj (fun i q qps p50 p99 h a -> (i, q, qps, p50, p99, h, a))
    |> field "index" (fun (i, _, _, _, _, _, _) -> i) int
    |> field "queries" (fun (_, q, _, _, _, _, _) -> q) int
    |> field "qps" (fun (_, _, qps, _, _, _, _) -> qps) float
    |> field "p50_ns" (fun (_, _, _, p50, _, _, _) -> p50) float
    |> field "p99_ns" (fun (_, _, _, _, p99, _, _) -> p99) float
    |> field "hotspot_ratio" (fun (_, _, _, _, _, h, _) -> h) float
    |> field "alert" (fun (_, _, _, _, _, _, a) -> a) bool
    |> seal
  in
  let edge =
    obj (fun index ratio factor -> (index, ratio, factor))
    |> field "index" (fun (i, _, _) -> i) int
    |> field "ratio" (fun (_, r, _) -> r) float
    |> field "factor" (fun (_, _, f) -> f) float
    |> seal
  in
  let five a b c d e =
    obj (fun x1 x2 x3 x4 x5 -> (x1, x2, x3, x4, x5))
    |> field a (fun (x, _, _, _, _) -> x) int
    |> field b (fun (_, x, _, _, _) -> x) int
    |> field c (fun (_, _, x, _, _) -> x) int
    |> field d (fun (_, _, _, x, _) -> x) int
    |> field e (fun (_, _, _, _, x) -> x) int
    |> seal
  in
  let one name c = obj Fun.id |> field name Fun.id c |> seal in
  tagged "type"
    [
      case "window_cut"
        (function
          | Journal.Window_cut { index; queries; qps; p50_ns; p99_ns; hotspot_ratio; alert } ->
            Some (index, queries, qps, p50_ns, p99_ns, hotspot_ratio, alert)
          | _ -> None)
        (fun (index, queries, qps, p50_ns, p99_ns, hotspot_ratio, alert) ->
          Journal.Window_cut { index; queries; qps; p50_ns; p99_ns; hotspot_ratio; alert })
        window_cut;
      case "alert_raised"
        (function
          | Journal.Alert_raised { index; ratio; factor } -> Some (index, ratio, factor)
          | _ -> None)
        (fun (index, ratio, factor) -> Journal.Alert_raised { index; ratio; factor })
        edge;
      case "alert_cleared"
        (function
          | Journal.Alert_cleared { index; ratio; factor } -> Some (index, ratio, factor)
          | _ -> None)
        (fun (index, ratio, factor) -> Journal.Alert_cleared { index; ratio; factor })
        edge;
      case "sketch_snapshot"
        (function Journal.Sketch_snapshot { top } -> Some top | _ -> None)
        (fun top -> Journal.Sketch_snapshot { top })
        (one "top" (list (triple int int int)));
      case "stage"
        (function Journal.Stage { name; mark } -> Some (name, mark) | _ -> None)
        (fun (name, mark) -> Journal.Stage { name; mark })
        (obj (fun name mark -> (name, mark))
        |> field "name" fst string
        |> field "mark" snd (enum [ ("begin", `Begin); ("end", `End) ])
        |> seal);
      case "publish"
        (function Journal.Publish { queries } -> Some queries | _ -> None)
        (fun queries -> Journal.Publish { queries })
        (one "queries" int);
      case "epoch_publish"
        (function
          | Journal.Epoch_publish { epoch; batch; levels; fresh_cells; dur_ns } ->
            Some (epoch, batch, levels, fresh_cells, dur_ns)
          | _ -> None)
        (fun (epoch, batch, levels, fresh_cells, dur_ns) ->
          Journal.Epoch_publish { epoch; batch; levels; fresh_cells; dur_ns })
        (five "epoch" "batch" "levels" "fresh_cells" "dur_ns");
      case "level_merge"
        (function
          | Journal.Level_merge { level; keys; replicas; cells; dur_ns } ->
            Some (level, keys, replicas, cells, dur_ns)
          | _ -> None)
        (fun (level, keys, replicas, cells, dur_ns) ->
          Journal.Level_merge { level; keys; replicas; cells; dur_ns })
        (five "level" "keys" "replicas" "cells" "dur_ns");
      case "reclaim"
        (function
          | Journal.Reclaim { epoch; freed; lag; pending } -> Some (epoch, freed, lag, pending)
          | _ -> None)
        (fun (epoch, freed, lag, pending) -> Journal.Reclaim { epoch; freed; lag; pending })
        (obj (fun epoch freed lag pending -> (epoch, freed, lag, pending))
        |> field "epoch" (fun (e, _, _, _) -> e) int
        |> field "freed" (fun (_, f, _, _) -> f) int
        |> field "lag" (fun (_, _, l, _) -> l) int
        |> field "pending" (fun (_, _, _, p) -> p) int
        |> seal);
      case "control_decision"
        (function
          | Journal.Control_decision
              { id; window; ratio; cell; count; err; score; action; old_boost; new_boost; cooldown }
            ->
            Some
              { Controller.d_id = id; d_window = window; d_ratio = ratio; d_cell = cell;
                d_count = count; d_err = err; d_score = score; d_action = action;
                d_old_boost = old_boost; d_new_boost = new_boost; d_cooldown = cooldown }
          | _ -> None)
        (fun d ->
          Journal.Control_decision
            { id = d.Controller.d_id; window = d.d_window; ratio = d.d_ratio; cell = d.d_cell;
              count = d.d_count; err = d.d_err; score = d.d_score; action = d.d_action;
              old_boost = d.d_old_boost; new_boost = d.d_new_boost; cooldown = d.d_cooldown })
        Controller.decision_codec;
      case "control_applied"
        (function
          | Journal.Control_applied { id; epoch; boost; levels; cells; dur_ns } ->
            Some (id, (epoch, boost, levels, cells, dur_ns))
          | _ -> None)
        (fun (id, (epoch, boost, levels, cells, dur_ns)) ->
          Journal.Control_applied { id; epoch; boost; levels; cells; dur_ns })
        (obj (fun id rest -> (id, rest))
        |> field "id" fst int
        |> inline snd (five "epoch" "boost" "levels" "cells" "dur_ns")
        |> seal);
    ]

let event_codec =
  Codec.(
    obj (fun t_ns writer seq kind -> { Journal.t_ns; writer; seq; kind })
    |> field "t_ns" (fun e -> e.Journal.t_ns) (conv Int64.to_int Int64.of_int int)
    |> field "writer" (fun e -> e.Journal.writer) int
    |> field "seq" (fun e -> e.Journal.seq) int
    |> inline (fun e -> e.Journal.kind) kind_codec
    |> seal)

let document =
  Codec.(
    document ~name:schema_name ~version:schema_version
      ~summary:(fun t ->
        Printf.sprintf "%d windows, %d events, trigger window %d" (List.length t.windows)
          (List.length t.events) t.trigger.index)
      (obj (fun fingerprint structure workload domains alert_factor trigger windows events
                dropped alert ->
           { fingerprint; structure; workload; domains; alert_factor; trigger; windows; events;
             dropped; alert })
      |> field "fingerprint" (fun t -> t.fingerprint) Artifact.fingerprint_codec
      |> field "structure" (fun t -> t.structure) string
      |> field "workload" (fun t -> t.workload) string
      |> field "domains" (fun t -> t.domains) int
      |> field "alert_factor" (fun t -> t.alert_factor) float
      |> field "trigger" (fun t -> t.trigger)
           (obj (fun index ratio factor -> { index; ratio; factor })
           |> field "index" (fun g -> g.index) int
           |> field "ratio" (fun g -> g.ratio) float
           |> field "factor" (fun g -> g.factor) float
           |> seal)
      |> field "windows" (fun t -> t.windows) (list Window.codec)
      |> field "events" (fun t -> t.events) (list event_codec)
      |> field "dropped" (fun t -> t.dropped) int
      |> field "alert" (fun t -> t.alert)
           (obj (fun active firing_run fired_total -> { active; firing_run; fired_total })
           |> field "active" (fun a -> a.active) bool
           |> field "firing_run" (fun a -> a.firing_run) int
           |> field "fired_total" (fun a -> a.fired_total) int
           |> seal)
      |> seal))

let to_string = Codec.to_string_strict document
let write = Codec.write document
let of_string = Codec.of_string document
let load = Codec.load document

(* ---------------- analysis ---------------- *)

let kind_line = function
  | Journal.Window_cut { index; queries; qps; p99_ns; hotspot_ratio; alert; _ } ->
    Printf.sprintf "window %3d cut: %d queries, %.0f q/s, p99 %.1f us, hotspot %.1fx%s" index
      queries qps (p99_ns /. 1e3) hotspot_ratio
      (if alert then "  << ALERT" else "")
  | Journal.Alert_raised { index; ratio; factor } ->
    Printf.sprintf "ALERT RAISED at window %d: ratio %.1fx > factor %.1fx" index ratio factor
  | Journal.Alert_cleared { index; ratio; factor } ->
    Printf.sprintf "alert cleared at window %d: ratio %.1fx <= factor %.1fx" index ratio factor
  | Journal.Sketch_snapshot { top } ->
    let cells =
      top
      |> List.filteri (fun i _ -> i < 4)
      |> List.map (fun (i, c, e) -> Printf.sprintf "%d:%d±%d" i c e)
      |> String.concat " "
    in
    Printf.sprintf "sketch top: %s" (if cells = "" then "(empty)" else cells)
  | Journal.Stage { name; mark } ->
    Printf.sprintf "stage %s %s" name (match mark with `Begin -> "begin" | `End -> "end")
  | Journal.Publish { queries } -> Printf.sprintf "worker published (cumulative %d queries)" queries
  | Journal.Epoch_publish { epoch; batch; levels; fresh_cells; dur_ns } ->
    Printf.sprintf "epoch %d published: %d update(s), %d level(s), %d fresh cell(s), %.1f us"
      epoch batch levels fresh_cells
      (float_of_int dur_ns /. 1e3)
  | Journal.Level_merge { level; keys; replicas; cells; dur_ns } ->
    Printf.sprintf "level %d merge: %d key(s) x %d replica(s) -> %d cell(s), %.1f us" level keys
      replicas cells
      (float_of_int dur_ns /. 1e3)
  | Journal.Reclaim { epoch; freed; lag; pending } ->
    Printf.sprintf "reclaim at epoch %d: freed %d level(s) (max lag %d), %d still retired" epoch
      freed lag pending
  | Journal.Control_decision { id; window; ratio; cell; score; action; old_boost; new_boost; cooldown; count; err } ->
    Printf.sprintf
      "CONTROL #%d at window %d: %s boost %d -> %d (ratio %.1fx, cell %d tally %d±%d, score %d, cooldown %d)"
      id window
      (match action with `Raise -> "RAISE" | `Lower -> "lower")
      old_boost new_boost ratio cell count err score cooldown
  | Journal.Control_applied { id; epoch; boost; levels; cells; dur_ns } ->
    Printf.sprintf
      "control #%d applied at epoch %d: boost %d, %d level(s) rebuilt (%d cells, %.1f us)" id
      epoch boost levels cells
      (float_of_int dur_ns /. 1e3)

let writer_label ~domains w =
  if w = 0 then "orch "
  else if w <= domains then Printf.sprintf "wrk%-2d" w
  else if w = domains + 1 then "mon  "
  else if w = domains + 2 then "bld  "
  else "ctl  "

let analyze t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "postmortem: %s / %s on %d domains (alert factor %.1fx, git %s, seed %d)\n" t.structure
    t.workload t.domains t.alert_factor
    (String.sub t.fingerprint.Artifact.git_rev 0
       (min 12 (String.length t.fingerprint.Artifact.git_rev)))
    t.fingerprint.Artifact.seed;
  add "trigger: window %d hotspot ratio %.1fx exceeded %.1fx the flat bound\n" t.trigger.index
    t.trigger.ratio t.trigger.factor;
  add "alert state at dump: %s (firing run %d, fired in %d window(s) total)\n"
    (if t.alert.active then "FIRING" else "quiet")
    t.alert.firing_run t.alert.fired_total;
  let alert_windows = List.filter (fun (w : Window.entry) -> w.Window.alert) t.windows in
  add "windows retained: %d (%d in alert)\n" (List.length t.windows) (List.length alert_windows);
  if t.dropped > 0 then add "journal: %d event(s) overwritten before the dump\n" t.dropped;
  (match t.events with
  | [] -> add "no journal events (run without a flight recorder)\n"
  | first :: _ ->
    add "\ntimeline (%d events, t0 = first retained event):\n" (List.length t.events);
    let t0 = first.Journal.t_ns in
    List.iter
      (fun (e : Journal.event) ->
        add "  +%10.3f ms  [%s]  %s\n"
          (Int64.to_float (Int64.sub e.Journal.t_ns t0) /. 1e6)
          (writer_label ~domains:t.domains e.Journal.writer)
          (kind_line e.Journal.kind))
      t.events);
  (* The hot cells as last sketched before (or at) the raise. *)
  let snap_before_raise =
    let rec scan last = function
      | [] -> last
      | { Journal.kind = Journal.Sketch_snapshot { top }; _ } :: rest -> scan (Some top) rest
      | { Journal.kind = Journal.Alert_raised _; _ } :: _ -> last
      | _ :: rest -> scan last rest
    in
    scan None t.events
  in
  (match snap_before_raise with
  | Some ((_ :: _) as top) ->
    add "\nhot cells at the raise (item: count±err):\n";
    List.iteri
      (fun i (item, count, err) -> if i < 8 then add "  cell %d: %d±%d\n" item count err)
      top
  | _ -> ());
  Buffer.contents buf
