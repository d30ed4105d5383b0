(* lowcon: a command-line workbench for the low-contention dictionary.

     lowcon report  --n 1024                build, verify, and profile one dictionary
     lowcon compare --n 1024 --dist zipf:1.0   contention of every structure under a distribution
     lowcon hotspot --n 1024 --m 256        concurrent hot-spot simulation

   Everything is deterministic given --seed. *)

open Cmdliner

module Rng = Lc_prim.Rng
module Qdist = Lc_cellprobe.Qdist
module Contention = Lc_cellprobe.Contention
module Instance = Lc_dict.Instance
module Keyset = Lc_workload.Keyset
module Stats = Lc_analysis.Stats

(* Every numeric flag has a domain: a count or a period is positive, a
   linger time is at least 0, a significance level lies strictly
   between 0 and 1. A value outside it, or a non-number, is a usage
   error (exit 2) that names the flag, never an exception from deep in
   the library. *)
let positive_int =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some v when v > 0 -> Ok v
        | _ -> Error (Printf.sprintf "%S is not a positive integer" s)),
      Format.pp_print_int )

let finite_float what ok =
  Arg.conv'
    ( (fun s ->
        match float_of_string_opt s with
        | Some v when Float.is_finite v && ok v -> Ok v
        | _ -> Error (Printf.sprintf "%S is not %s" s what)),
      Format.pp_print_float )

let positive_float = finite_float "a positive number" (fun v -> v > 0.0)
let non_negative_float = finite_float "a number >= 0" (fun v -> v >= 0.0)

let open_unit_float =
  finite_float "a number strictly between 0 and 1" (fun v -> v > 0.0 && v < 1.0)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_arg =
  Arg.(value & opt positive_int 1024 & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of keys.")

let universe_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "universe" ] ~docv:"U" ~doc:"Universe size (default: max(16n, n^2) capped at 2^28).")

let resolve_universe n = function
  | Some u ->
    if u < n then failwith "universe must be at least n";
    u
  | None -> min (max (16 * n) (n * n)) (1 lsl 28)

let dist_arg =
  let doc =
    "Query distribution: 'pos' (uniform positive), 'neg' (uniform negative sample), \
     'mix:P' (positive with probability P), 'zipf:S' (Zipf skew S over the keys), \
     'point' (a single hot key). For $(b,lowcon monitor) only, 'rw:F' selects a mixed \
     read-write op stream (read fraction F, updates split evenly between inserts and \
     deletes) served by the epoch-published dynamic dictionary — pair it with \
     --structure lc-dyn. 'flash:S' (also lc-dyn only) is a query-only flash crowd: flat \
     for the first third of the stream, then one hot key absorbs share S of all queries \
     — the workload $(b,--adaptive) exists to absorb."
  in
  Arg.(value & opt string "pos" & info [ "dist" ] ~docv:"DIST" ~doc)

(* One vocabulary for workload and structure names, shared with the
   perf suite so artifact keys mean the same thing everywhere. *)
let parse_dist rng ~universe ~keys spec = Lc_perf.Select.workload rng ~universe ~keys spec

let with_errors f =
  try `Ok (f ()) with
  | Failure msg | Invalid_argument msg -> `Error (false, msg)
  | Lc_core.Dictionary.Build_failed { stage; trials; detail } ->
    `Error
      ( false,
        Printf.sprintf "dictionary construction failed at stage %S after %d trial(s): %s" stage
          trials detail )

(* ------------------------------------------------------------------ *)

let report seed n universe_opt =
  with_errors @@ fun () ->
  let rng = Rng.create seed in
  let universe = resolve_universe n universe_opt in
  let keys = Keyset.random rng ~universe ~n in
  let dict, build_s =
    let t0 = Unix.gettimeofday () in
    let d = Lc_core.Dictionary.build rng ~universe ~keys in
    (d, Unix.gettimeofday () -. t0)
  in
  Format.printf "Parameters:@.%a@.@." Lc_core.Params.pp (Lc_core.Dictionary.params dict);
  Printf.printf "Built in %.4f s (%d P(S) trial(s)).\n" build_s
    (Lc_core.Dictionary.build_trials dict);
  (match Lc_core.Dictionary.verify dict with
  | Ok () -> print_endline "Structural verification: ok."
  | Error e -> Printf.printf "Structural verification FAILED: %s\n" e);
  let inst = Lc_core.Dictionary.instance dict in
  let report_dist label qd =
    let c = Instance.contention_exact inst qd in
    let prof = Contention.profile c in
    Printf.printf
      "%-18s mean probes %.2f | s*maxPhi %.1f (per-step %.1f) | profile p50 %.1f p99 %.1f\n"
      label c.mean_probes
      (Contention.normalized_max c)
      (Contention.normalized_step_max c)
      (Stats.median prof) (Stats.quantile prof 0.99)
  in
  report_dist "uniform positive" (Qdist.uniform ~name:"pos" keys);
  report_dist "uniform negative"
    (Qdist.uniform ~name:"neg" (Keyset.negatives rng ~universe ~keys ~count:(8 * n)));
  Printf.printf "Space: %d cells of %d bits (%.1f cells/key); max probes %d.\n" inst.space
    (Lc_cellprobe.Table.bits inst.table)
    (float_of_int inst.space /. float_of_int n)
    inst.max_probes

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Build one low-contention dictionary and profile it.")
    Term.(ret (const report $ seed_arg $ n_arg $ universe_arg))

(* ------------------------------------------------------------------ *)

let compare_structures seed n universe_opt dist =
  with_errors @@ fun () ->
  let rng = Rng.create seed in
  let universe = resolve_universe n universe_opt in
  let keys = Keyset.random rng ~universe ~n in
  let qd = parse_dist rng ~universe ~keys dist in
  Printf.printf "Distribution: %s (entropy %.2f bits)\n\n" (Qdist.name qd) (Qdist.entropy qd);
  Printf.printf "%-20s %10s %12s %12s %12s\n" "structure" "cells" "max probes" "mean probes"
    "s*maxPhi";
  let arm label inst =
    let c = Instance.contention_exact inst qd in
    Printf.printf "%-20s %10d %12d %12.2f %12.1f\n" label inst.Instance.space
      inst.Instance.max_probes c.mean_probes
      (Contention.normalized_max c)
  in
  arm "low-contention" (Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys));
  arm "fks" (Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys));
  arm "fks-replicated" (Lc_dict.Fks.instance (Lc_dict.Fks.build rng ~universe ~keys));
  arm "dm-replicated" (Lc_dict.Dm_dict.instance (Lc_dict.Dm_dict.build rng ~universe ~keys));
  arm "cuckoo-replicated" (Lc_dict.Cuckoo.instance (Lc_dict.Cuckoo.build rng ~universe ~keys));
  arm "binary-search" (Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys));
  arm "repl-bst (pred.)" (Lc_dict.Repl_bst.instance (Lc_dict.Repl_bst.build ~universe ~keys))

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all structures' contention under a query distribution.")
    Term.(ret (const compare_structures $ seed_arg $ n_arg $ universe_arg $ dist_arg))

(* ------------------------------------------------------------------ *)

let m_arg =
  Arg.(
    value
    & opt positive_int 256
    & info [ "m"; "concurrency" ] ~docv:"M" ~doc:"Concurrent queries per trial.")

let hotspot seed n universe_opt m dist =
  with_errors @@ fun () ->
  let rng = Rng.create seed in
  let universe = resolve_universe n universe_opt in
  let keys = Keyset.random rng ~universe ~n in
  let qd = parse_dist rng ~universe ~keys dist in
  Printf.printf
    "Hot spot = max queries probing one cell in one lock-step round (m = %d, 50 trials).\n\n" m;
  Printf.printf "%-20s %14s %14s\n" "structure" "mean hotspot" "worst hotspot";
  let arm label (inst : Instance.t) =
    let stats =
      Lc_cellprobe.Concurrency.simulate ~rng ~cells:inst.space ~qdist:qd ~spec:inst.spec ~m
        ~trials:50
    in
    Printf.printf "%-20s %14.1f %14d\n" label stats.mean_hotspot stats.max_hotspot
  in
  arm "low-contention" (Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys));
  arm "fks-replicated" (Lc_dict.Fks.instance (Lc_dict.Fks.build rng ~universe ~keys));
  arm "cuckoo-replicated" (Lc_dict.Cuckoo.instance (Lc_dict.Cuckoo.build rng ~universe ~keys));
  arm "binary-search" (Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys))

let hotspot_cmd =
  Cmd.v
    (Cmd.info "hotspot" ~doc:"Simulate m concurrent queries and report the hottest cell.")
    Term.(ret (const hotspot $ seed_arg $ n_arg $ universe_arg $ m_arg $ dist_arg))

(* ------------------------------------------------------------------ *)

let domains_arg =
  Arg.(
    value
    & opt positive_int 4
    & info [ "domains" ] ~docv:"M" ~doc:"Worker domains for the serving run.")

let queries_arg =
  Arg.(
    value
    & opt positive_int 4000
    & info [ "queries" ] ~docv:"Q" ~doc:"Queries per domain in the serving run.")

let cost_arg =
  let doc = "Probe cost model: 'free' or 'spin:H' (per-cell spinlock held H extra relax loops)." in
  Arg.(value & opt string "free" & info [ "cost" ] ~docv:"COST" ~doc)

(* Cost-model names, like structure and workload names, are interpreted
   in exactly one place: Lc_perf.Select. *)
let parse_cost spec = Lc_perf.Select.cost spec

let structure_arg =
  let doc =
    "Structure to serve: 'lc' (the low-contention dictionary), 'fks-norepl' (unreplicated FKS \
     — the deliberately hot one), 'fks', 'dm', 'cuckoo', 'binary', or 'lc-dyn' (the \
     epoch-published dynamic dictionary; pair it with --dist rw:F)."
  in
  Arg.(value & opt string "lc" & info [ "structure" ] ~docv:"S" ~doc)

let build_structure ?obs rng ~universe ~keys s = Lc_perf.Select.structure ?obs rng ~universe ~keys s

let out_arg =
  Arg.(
    value
    & opt string "lowcon-profile"
    & info [ "out"; "o" ] ~docv:"PREFIX"
        ~doc:
          "Output prefix: writes $(docv).trace.json (Chrome trace events, open in Perfetto or \
           chrome://tracing), $(docv).prom (Prometheus text exposition), and \
           $(docv).metrics.json.")

let profile seed n universe_opt dist structure domains queries cost_spec out =
  with_errors @@ fun () ->
  let cost = parse_cost cost_spec in
  let rng = Rng.create seed in
  let universe = resolve_universe n universe_opt in
  let keys = Keyset.random rng ~universe ~n in
  let obs = Lc_obs.Obs.create () in
  let inst = build_structure ~obs rng ~universe ~keys structure in
  let qd = parse_dist rng ~universe ~keys dist in
  let cfg = Lc_parallel.Engine.Config.make ~cost ~obs ~domains ~seed () in
  let o =
    Lc_parallel.Engine.run cfg
      (Lc_parallel.Engine.Static { inst; qdist = qd; queries_per_domain = queries })
  in
  let r = o.Lc_parallel.Engine.result in
  let snap = Lc_obs.Obs.snapshot obs in
  Printf.printf "Served %d queries on %d domains in %.4f s (%.0f q/s).\n" r.queries r.domains
    r.seconds r.throughput;
  Printf.printf "Probes: %d total; hottest cell %d with %d (%.1fx the flat bound %.1f).\n"
    r.total_probes r.hottest_cell r.hottest_count
    (Lc_parallel.Engine.hotspot_ratio r)
    r.flat_bound;
  (match Lc_obs.Metrics.Snapshot.find_hist snap "engine_query_latency_ns" with
  | Some h ->
    let q p = Lc_obs.Metrics.Snapshot.quantile h p /. 1e3 in
    Printf.printf "Query latency: p50 %.1f us, p90 %.1f us, p99 %.1f us, max %.1f us.\n" (q 0.5)
      (q 0.9) (q 0.99)
      (float_of_int h.max_value /. 1e3)
  | None -> ());
  (match Lc_obs.Metrics.Snapshot.find_hist snap "engine_spinlock_wait_ns" with
  | Some h when h.count > 0 ->
    Printf.printf "Spinlock: %d acquisitions, %.2f ms total wait, p99 wait %.1f us.\n" h.count
      (float_of_int h.sum /. 1e6)
      (Lc_obs.Metrics.Snapshot.quantile h 0.99 /. 1e3)
  | _ -> ());
  print_newline ();
  print_string (Lc_obs.Span.summary obs.spans);
  let trace_path = out ^ ".trace.json" in
  let prom_path = out ^ ".prom" in
  let json_path = out ^ ".metrics.json" in
  (match Lc_obs.Span.check_balanced obs.spans with
  | Ok () -> ()
  | Error e -> failwith ("internal: unbalanced trace — " ^ e));
  Lc_obs.Export.write_file ~path:trace_path (Lc_obs.Span.to_chrome_json obs.spans);
  Lc_obs.Export.write_file ~path:prom_path (Lc_obs.Export.prometheus snap);
  Lc_obs.Export.write_file ~path:json_path (Lc_obs.Export.json_snapshot snap);
  Printf.printf "\nWrote %s (load in https://ui.perfetto.dev), %s, %s.\n" trace_path prom_path
    json_path

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Build any named structure (with build-stage spans where the builder supports them), \
          serve a workload with per-domain telemetry, and dump metrics (Prometheus + JSON) and \
          a Chrome trace side by side.")
    Term.(
      ret
        (const profile $ seed_arg $ n_arg $ universe_arg $ dist_arg $ structure_arg
       $ domains_arg $ queries_arg $ cost_arg $ out_arg))

(* ------------------------------------------------------------------ *)

module Engine = Lc_parallel.Engine
module Window = Lc_obs.Window

let window_arg =
  Arg.(
    value
    & opt positive_float 0.25
    & info [ "window" ] ~docv:"SECONDS" ~doc:"Monitor tick period — one window per tick.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:
          "Serve /metrics, /snapshot.json, /cells.json, /windows.json, /updates.json, \
           /scaling.json, /control.json and /healthz on 127.0.0.1:$(docv) during the run \
           (0 picks an ephemeral port).")

let top_k_arg =
  Arg.(
    value
    & opt positive_int 16
    & info [ "top-k" ] ~docv:"K" ~doc:"Hot-cell sketch capacity per worker.")

let alert_arg =
  Arg.(
    value
    & opt positive_float 8.0
    & info [ "alert-factor" ] ~docv:"X"
        ~doc:
          "Fire the hotspot alert when a window's engine_hotspot_ratio exceeds $(docv) times \
           the flat 1/s bound.")

let no_dashboard_arg =
  Arg.(
    value
    & flag
    & info [ "no-dashboard" ]
        ~doc:"Append one log line per window instead of redrawing a terminal dashboard.")

let linger_arg =
  Arg.(
    value
    & opt non_negative_float 0.0
    & info [ "linger" ] ~docv:"SECONDS"
        ~doc:"Keep the HTTP endpoint up this long after the run completes.")

let dump_on_alert_arg =
  Arg.(
    value
    & opt ~vopt:(Some "auto") (some string) None
    & info [ "dump-on-alert" ] ~docv:"PATH"
        ~doc:
          "Attach a flight recorder (lock-free per-domain event journals) and, the moment the \
           hotspot alert first fires, dump a postmortem artifact — window ring, journal \
           timeline, alert state, environment fingerprint — to $(docv) (default: a timestamped \
           postmortem-*.json in the current directory). Analyze it with $(b,lowcon \
           postmortem).")

let journal_capacity_arg =
  Arg.(
    value
    & opt positive_int 1024
    & info [ "journal-capacity" ] ~docv:"EVENTS"
        ~doc:"Flight-recorder ring capacity per recording domain (oldest events overwritten).")

let adaptive_arg =
  Arg.(
    value
    & flag
    & info [ "adaptive" ]
        ~doc:
          "Attach the replication controller (dynamic structure only): each window's sketch \
           evidence steps a hysteresis policy that raises or lowers the small-level \
           replication boost online, actuated through the builder's next epoch publication — \
           readers are never blocked. Decisions land on their own flight-recorder ring, in \
           /control.json and on the dashboard.")

let control_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "control-out" ] ~docv:"PATH"
        ~doc:
          "Write the final /control.json document (schema lowcon-control) to $(docv) after \
           the run — validate it with $(b,lowcon validate).")

let postmortem_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "postmortem-out" ] ~docv:"PATH"
        ~doc:
          "Attach a flight recorder and write a postmortem artifact to $(docv) at the end of \
           the run, triggered by the final window — unlike $(b,--dump-on-alert), which \
           captures at the first alert edge, this captures the whole story (for an adaptive \
           run: every controller decision interleaved with the alerts). Replay it with \
           $(b,lowcon postmortem).")

let window_line (e : Window.entry) =
  let base =
    Printf.sprintf
      "w%03d  [%6.2fs,%6.2fs)  q %7d  qps %9.0f  p50 %7.1fus  p99 %7.1fus  hot %6.1fx  %s"
      e.index e.t_start_s e.t_end_s e.queries e.qps (e.p50_ns /. 1e3) (e.p99_ns /. 1e3)
      e.hotspot_ratio
      (if e.alert then "ALERT" else "-")
  in
  match e.updates with
  | None -> base
  | Some u ->
    base
    ^ Printf.sprintf "  | ups %7.0f/s  pubs %5.1f/s  w-amp %5.2f  rb-p99 %6.1fus" u.Window.ups
        u.Window.pubs_per_s u.Window.write_amp
        (u.Window.rebuild_p99_ns /. 1e3)

let render_dashboard ~name ~domains ~port ~alert_factor mon (_ : Window.entry) =
  let w = Engine.Monitor.window mon in
  let entries = Window.entries w in
  let recent =
    let len = List.length entries in
    if len <= 16 then entries else List.filteri (fun i _ -> i >= len - 16) entries
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "\027[2J\027[H";
  Buffer.add_string buf
    (Printf.sprintf "lowcon monitor — %s, %d domains, alert at %.1fx flat%s\n\n" name domains
       alert_factor
       (match port with
       | Some p -> Printf.sprintf " — http://127.0.0.1:%d/metrics" p
       | None -> ""));
  List.iter (fun e -> Buffer.add_string buf (window_line e ^ "\n")) recent;
  Buffer.add_string buf
    (Printf.sprintf "\nwindows %d   alert %s (fired in %d, current run %d)\n"
       (Window.total_windows w)
       (if Window.alert_active w then "FIRING" else "quiet")
       (Window.alert_fired_total w) (Window.alert_firing_run w));
  (* Update panel: present only while the builder is reporting (the
     epoch-published dynamic dictionary under --dist rw:F). *)
  (match Window.last w with
  | Some { Window.updates = Some u; _ } ->
    Buffer.add_string buf
      (Printf.sprintf
         "updates   ups %8.0f/s   pubs %5.1f/s   write-amp %6.2f   rebuild p99 %7.1fus\n\
          epoch %-6d retired-pending %-4d reader-lag %-3d cum updates %d (cells %d)\n"
         u.Window.ups u.Window.pubs_per_s u.Window.write_amp
         (u.Window.rebuild_p99_ns /. 1e3)
         u.Window.u_epoch u.Window.u_retired u.Window.u_reader_lag u.Window.cum_updates
         u.Window.cum_cells)
  | _ -> ());
  (* Controller panel: present only when --adaptive attached one. *)
  (match Engine.Monitor.controller mon with
  | None -> ()
  | Some ctl ->
    let module C = Lc_control.Controller in
    Buffer.add_string buf
      (Printf.sprintf
         "control   boost %d -> target %d (applied %d)   windowed ratio %6.1fx   score %-5d \
          cooldown %d   decisions %d\n"
         (C.base_boost ctl) (C.target_boost ctl) (C.applied_boost ctl) (C.last_ratio ctl)
         (C.score ctl) (C.cooldown ctl) (C.decisions_total ctl));
    match C.decisions ctl with
    | [] -> ()
    | ds ->
      let d = List.nth ds (List.length ds - 1) in
      Buffer.add_string buf
        (Printf.sprintf "          last: #%d at w%d %s %d -> %d (ratio %.1fx, cell %d)\n"
           d.C.d_id d.C.d_window
           (match d.C.d_action with `Raise -> "RAISE" | `Lower -> "lower")
           d.C.d_old_boost d.C.d_new_boost d.C.d_ratio d.C.d_cell));
  print_string (Buffer.contents buf);
  flush stdout

let monitor_run seed n universe_opt dist structure domains queries cost_spec window_s port_opt
    top_k alert_factor no_dashboard linger dump_on_alert journal_capacity adaptive control_out
    postmortem_out =
  with_errors @@ fun () ->
  let cost = parse_cost cost_spec in
  let rw = Lc_perf.Select.rw_fraction dist in
  let flash = Lc_perf.Select.flash_share dist in
  let dyn = rw <> None || flash <> None in
  (match (dyn, structure) with
  | true, s when s <> Lc_perf.Select.dynamic_name ->
    failwith
      (Printf.sprintf "--dist %s is an op stream; pair it with --structure %s" dist
         Lc_perf.Select.dynamic_name)
  | false, s when s = Lc_perf.Select.dynamic_name ->
    failwith
      (Printf.sprintf
         "--structure %s serves op streams; pair it with --dist rw:F or --dist flash:S"
         Lc_perf.Select.dynamic_name)
  | _ -> ());
  if adaptive && not dyn then
    failwith
      (Printf.sprintf
         "--adaptive actuates replication through epoch publication; pair it with --structure \
          %s and --dist rw:F or flash:S"
         Lc_perf.Select.dynamic_name);
  (match (dyn, cost) with
  | true, Engine.Spinlock _ ->
    failwith
      "the epoch read path takes no per-cell locks; --cost spin:H only applies to static \
       serving"
  | _ -> ());
  let rng = Rng.create seed in
  let universe = resolve_universe n universe_opt in
  let keys = Keyset.random rng ~universe ~n in
  let journal =
    (* Ring layout: 0 = orchestrator, 1..domains = workers,
       domains+1 = monitor; a dynamic run gets one more ring
       (domains+2) for the builder's publish/merge/reclaim events, and
       an adaptive run one more again (domains+3) for the controller's
       decisions. *)
    let writers =
      domains + 2 + (if dyn then 1 else 0) + if adaptive then 1 else 0
    in
    if dump_on_alert <> None || postmortem_out <> None then
      Some (Lc_obs.Journal.create ~writers ~capacity:journal_capacity)
    else None
  in
  let stage name mark =
    Option.iter
      (fun j -> Lc_obs.Journal.record j ~writer:0 (Lc_obs.Journal.Stage { name; mark }))
      journal
  in
  stage "build" `Begin;
  let prepared =
    if not dyn then begin
      let inst = build_structure rng ~universe ~keys structure in
      let qd = parse_dist rng ~universe ~keys dist in
      `Static (inst, qd)
    end
    else begin
      let epoch = Lc_dynamic.Epoch.create rng ~universe () in
      let length = domains * queries in
      let ops =
        match (rw, flash) with
        | Some read_fraction, _ ->
          Array.iter (fun k -> Lc_dynamic.Epoch.insert epoch k) keys;
          Lc_dynamic.Epoch.publish epoch;
          Lc_workload.Opstream.generate
            ~mix:(Lc_workload.Opstream.read_write_mix ~read_fraction)
            ~initial_pool:keys rng ~universe ~length
            ~working_set:(min universe (2 * n))
        | None, Some hot_share ->
          (* Query-only flash crowd: the hot key is a member but stays
             outside the base pool, so the first third of the stream
             never touches it. *)
          let hot_key = (Keyset.negatives rng ~universe ~keys ~count:1).(0) in
          Array.iter (fun k -> Lc_dynamic.Epoch.insert epoch k) keys;
          Lc_dynamic.Epoch.insert epoch hot_key;
          Lc_dynamic.Epoch.publish epoch;
          Lc_workload.Opstream.point_mass
            ~mix:{ Lc_workload.Opstream.p_insert = 0.0; p_delete = 0.0 }
            ~initial_pool:keys rng ~universe ~length ~working_set:n
            ~hot_from:(length / 3) ~hot_share ~hot_key
        | None, None -> assert false
      in
      `Dynamic (epoch, ops)
    end
  in
  stage "build" `End;
  let display_name =
    match prepared with
    | `Static (inst, _) -> inst.Instance.name
    | `Dynamic _ -> Lc_perf.Select.dynamic_name
  in
  (* The dashboard hook needs the monitor (for the window ring) and the
     HTTP port, neither of which exists until after the hook does;
     thread both through refs set before the run starts. *)
  let bound_port = ref None in
  let mon_ref = ref None in
  let last_window = ref None in
  let on_window e =
    last_window := Some e;
    if no_dashboard then begin
      print_endline (window_line e);
      flush stdout
    end
    else
      match !mon_ref with
      | None -> ()
      | Some mon ->
        render_dashboard ~name:display_name ~domains ~port:!bound_port ~alert_factor mon e
  in
  let dumped = ref [] in
  let on_alert =
    match dump_on_alert with
    | None -> None
    | Some spec ->
      Some
        (fun (e : Window.entry) ->
          match !mon_ref with
          | None -> ()
          | Some mon ->
            let pm =
              Lc_perf.Postmortem.capture
                ~fingerprint:(Lc_perf.Artifact.fingerprint ~seed)
                ~structure ~workload:dist ~domains ~trigger:e mon
            in
            let path =
              if spec = "auto" then
                Printf.sprintf "postmortem-%.0f-w%d.json" (Unix.time ()) e.Window.index
              else spec
            in
            Lc_perf.Postmortem.write ~path pm;
            dumped := path :: !dumped)
  in
  let mon =
    match prepared with
    | `Static (inst, _) ->
      Engine.Monitor.create ~interval_s:window_s ~top_k ~alert_factor ~on_window ?journal
        ?on_alert ~domains inst
    | `Dynamic (epoch, _) ->
      let s0 = Lc_dynamic.Epoch.current epoch in
      Engine.Monitor.create_for ~interval_s:window_s ~top_k ~alert_factor ~on_window ?journal
        ?on_alert ~domains ~space:(Lc_dynamic.Epoch.space s0)
        ~max_probes:(Lc_dynamic.Epoch.max_probes s0) ()
  in
  mon_ref := Some mon;
  (if adaptive then
     match prepared with
     | `Dynamic (epoch, _) ->
       let s0 = Lc_dynamic.Epoch.current epoch in
       let ctl =
         Lc_control.Controller.create
           ?journal:
             (Option.map (fun j -> (j, Engine.Monitor.controller_writer ~domains)) journal)
           ~space:(Lc_dynamic.Epoch.space s0)
           ~max_probes:(Lc_dynamic.Epoch.max_probes s0)
           ~boost:(Lc_dynamic.Dynamic.small_level_boost (Lc_dynamic.Epoch.inner epoch))
           ()
       in
       Engine.Monitor.attach_controller mon ctl
     | `Static _ -> assert false);
  let routes = Engine.Monitor.routes mon in
  let server = Option.map (fun p -> Lc_obs.Http.start ~port:p routes) port_opt in
  (match server with
  | Some s ->
    bound_port := Some (Lc_obs.Http.port s);
    Printf.printf "Scrape endpoint: http://127.0.0.1:%d%s\n%!" (Lc_obs.Http.port s)
      (match List.map fst routes with
      | first :: rest -> Printf.sprintf "%s (also %s)" first (String.concat ", " rest)
      | [] -> "")
  | None -> ());
  let w =
    let cfg = Engine.Config.make ~cost ~monitor:mon ~domains ~seed () in
    match prepared with
    | `Static (inst, qd) ->
      Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain = queries })
    | `Dynamic (epoch, ops) ->
      Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 64 })
  in
  let r = w.Engine.result in
  if not no_dashboard then print_newline ();
  Printf.printf "\nServed %d queries on %d domains in %.4f s (%.0f q/s); %d windows.\n" r.queries
    r.domains r.seconds r.throughput (List.length w.windows);
  Printf.printf "Hottest cell %d: %d probes, %.1fx the flat bound %.1f (exact).\n" r.hottest_cell
    r.hottest_count (Engine.hotspot_ratio r) r.flat_bound;
  (* Cache-line co-heat: how much probe traffic lands next to other
     traffic on the same line — the false-sharing signature. Exact
     per-cell counts exist only for static runs. *)
  (if Array.length r.Engine.counts > 0 then
     let ch = Lc_analysis.Coheat.of_counts r.Engine.counts in
     if ch.Lc_analysis.Coheat.total > 0 then
       Printf.printf
         "Cache-line co-heat: %.3f over %d lines of %d cells (uniform bound %.3f); hottest \
          line %d carries %.1f%% of probes.\n"
         ch.Lc_analysis.Coheat.ratio ch.Lc_analysis.Coheat.lines
         ch.Lc_analysis.Coheat.line_cells
         (Lc_analysis.Coheat.uniform_bound ch)
         ch.Lc_analysis.Coheat.hottest_line
         (100.0 *. ch.Lc_analysis.Coheat.hottest_line_share));
  (match w.windows with
  | [] -> ()
  | ws ->
    let final = List.nth ws (List.length ws - 1) in
    Printf.printf "Final window: sketched ratio %.1fx, hottest sketched cell %d.\n"
      final.hotspot_ratio final.max_cell);
  (match w.cells with
  | Some cells when cells.top <> [] ->
    Printf.printf "Sketched top cells (error bound %d):" cells.error_bound;
    List.iteri
      (fun i (e : Lc_obs.Heavy.entry) ->
        if i < 5 then Printf.printf "  %d:%d±%d" e.item e.count e.err)
      cells.top;
    print_newline ()
  | _ -> ());
  if w.alert_windows > 0 then
    Printf.printf
      "ALERT: hotspot ratio exceeded %.1fx flat in %d of %d windows — a contended cell is \
       absorbing far more than its 1/s share (Theta(sqrt n) regression territory).\n"
      alert_factor w.alert_windows (List.length w.windows)
  else
    Printf.printf "Alert quiet: every window stayed within %.1fx of the flat bound.\n"
      alert_factor;
  (match w.Engine.updates with
  | None -> ()
  | Some u ->
    Printf.printf
      "Updates: %d inserts + %d deletes applied off the read path; %d publications, %d levels \
       reclaimed (%d pending), %d keys rebuilt, %d purges.\n"
      u.Engine.inserts u.Engine.deletes u.Engine.publications u.Engine.reclaimed
      u.Engine.retired_pending u.Engine.keys_rebuilt u.Engine.purges;
    let update_ops = u.Engine.inserts + u.Engine.deletes in
    Printf.printf
      "Write path: %d cells written in %d level builds (write-amp %.2f); %.1f us/update, \
       rebuild %.2f ms + publish %.2f ms wall; worst reclaim lag %d epoch(s).\n"
      u.Engine.cells_written u.Engine.rebuilds u.Engine.write_amp
      (if update_ops = 0 then 0.0
       else float_of_int u.Engine.builder_ns /. float_of_int update_ops /. 1e3)
      (float_of_int u.Engine.rebuild_ns /. 1e6)
      (float_of_int u.Engine.publish_ns /. 1e6)
      u.Engine.reclaim_lag_max;
    Printf.printf "Final snapshot: epoch %d, %d live keys; %d of %d queries hit.\n"
      u.Engine.final_epoch u.Engine.final_live u.Engine.query_hits r.queries);
  (match Engine.Monitor.controller mon with
  | None -> ()
  | Some ctl ->
    let module C = Lc_control.Controller in
    Printf.printf
      "Control: %d decision(s) over %d windows; boost %d -> %d (applied %d), final windowed \
       ratio %.1fx.\n"
      (C.decisions_total ctl) (C.windows_seen ctl) (C.base_boost ctl) (C.target_boost ctl)
      (C.applied_boost ctl) (C.last_ratio ctl);
    List.iter
      (fun (d : C.decision) ->
        Printf.printf "  #%d w%-3d %s %4d -> %-4d ratio %6.1fx cell %d (score %d, cooldown %d)\n"
          d.C.d_id d.C.d_window
          (match d.C.d_action with `Raise -> "RAISE" | `Lower -> "lower")
          d.C.d_old_boost d.C.d_new_boost d.C.d_ratio d.C.d_cell d.C.d_score d.C.d_cooldown)
      (C.decisions ctl));
  (match control_out with
  | None -> ()
  | Some path ->
    Lc_obs.Export.write_file ~path (Engine.Monitor.control_json mon);
    Printf.printf "Control document: %s (check with 'lowcon validate %s').\n" path path);
  (match (postmortem_out, !last_window) with
  | None, _ -> ()
  | Some _, None -> Printf.printf "No windows were cut; final postmortem not written.\n"
  | Some path, Some e ->
    let pm =
      Lc_perf.Postmortem.capture
        ~fingerprint:(Lc_perf.Artifact.fingerprint ~seed)
        ~structure ~workload:dist ~domains ~trigger:e mon
    in
    Lc_perf.Postmortem.write ~path pm;
    Printf.printf "Final postmortem: %s (replay with 'lowcon postmortem %s').\n" path path);
  List.iter
    (fun path ->
      Printf.printf "Postmortem dump: %s (inspect with 'lowcon postmortem %s').\n" path path)
    (List.rev !dumped);
  (if dump_on_alert <> None && !dumped = [] then
     Printf.printf "Flight recorder armed; alert never fired, no postmortem written.\n");
  (match server with
  | Some s ->
    if linger > 0.0 then begin
      Printf.printf "Endpoint stays up for %.1f s (ctrl-C to stop early)...\n%!" linger;
      Unix.sleepf linger
    end;
    Lc_obs.Http.stop s
  | None -> ())

let monitor_cmd =
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Serve a workload while watching it live: windowed qps and latency quantiles, \
          sketched hot cells, a theory-bound hotspot alert, and an optional HTTP scrape \
          endpoint.")
    Term.(
      ret
        (const monitor_run $ seed_arg $ n_arg $ universe_arg $ dist_arg $ structure_arg
       $ domains_arg $ queries_arg $ cost_arg $ window_arg $ port_arg $ top_k_arg $ alert_arg
       $ no_dashboard_arg $ linger_arg $ dump_on_alert_arg $ journal_capacity_arg
       $ adaptive_arg $ control_out_arg $ postmortem_out_arg))

(* ------------------------------------------------------------------ *)

module Artifact = Lc_perf.Artifact
module Suite = Lc_perf.Suite
module Diff = Lc_perf.Diff
module Postmortem = Lc_perf.Postmortem
module Tablefmt = Lc_analysis.Tablefmt

let quick_arg =
  Arg.(
    value
    & flag
    & info [ "quick" ]
        ~doc:"Run the reduced CI smoke grid instead of the full default suite.")

let dir_arg =
  Arg.(
    value
    & opt string "."
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Directory for automatic BENCH_<n>.json numbering (ignored with $(b,--out)).")

let perf_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"PATH"
        ~doc:"Write the artifact here instead of the next free BENCH_<n>.json in $(b,--dir).")

let entry_table (entries : Artifact.entry list) =
  let t =
    Tablefmt.create ~title:"perf suite results"
      ~columns:
        [
          "config"; "ns/q"; "95% CI"; "probes/q"; "p50 us"; "p99 us"; "hotspot"; "queries";
          "ns/upd"; "w-amp";
        ]
  in
  List.iter
    (fun (e : Artifact.entry) ->
      Tablefmt.add_row t
        [
          Diff.key_string (Artifact.key e);
          Printf.sprintf "%.1f" e.Artifact.ns_per_query.Artifact.mean;
          Printf.sprintf "[%.1f, %.1f]" e.Artifact.ns_per_query.Artifact.lo
            e.Artifact.ns_per_query.Artifact.hi;
          Printf.sprintf "%.2f" e.Artifact.probes_per_query.Artifact.mean;
          Printf.sprintf "%.1f" (e.Artifact.p50_ns /. 1e3);
          Printf.sprintf "%.1f" (e.Artifact.p99_ns /. 1e3);
          Printf.sprintf "%.2fx" e.Artifact.hotspot_ratio;
          string_of_int e.Artifact.queries;
          (match e.Artifact.ns_per_update with
          | Some c -> Printf.sprintf "%.0f" c.Artifact.mean
          | None -> "-");
          (match e.Artifact.write_amp with
          | Some w -> Printf.sprintf "%.2f" w
          | None -> "-");
        ])
    entries;
  Tablefmt.render t

let perf_run seed quick dir out =
  with_errors @@ fun () ->
  let spec = if quick then Suite.quick else Suite.default in
  let art =
    Suite.run ~progress:(fun label -> Printf.printf "  %s\n%!" label) ~seed spec
  in
  print_newline ();
  print_string (entry_table art.Artifact.entries);
  let path = match out with Some p -> p | None -> Artifact.next_path ~dir in
  Artifact.write ~path art;
  let f = art.Artifact.fingerprint in
  Printf.printf
    "\nWrote %s (%s v%d; ocaml %s, %d cores, git %s, seed %d, clock overhead %.1f ns).\n" path
    Artifact.schema_name Artifact.schema_version f.Artifact.ocaml_version f.Artifact.cores
    f.Artifact.git_rev f.Artifact.seed f.Artifact.clock_overhead_ns

let perf_run_term =
  Term.(ret (const perf_run $ seed_arg $ quick_arg $ dir_arg $ perf_out_arg))

let perf_run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the perf suite (structure x workload x domain-count grid, several trials each) \
          and write a schema-versioned BENCH_<n>.json artifact with bootstrap confidence \
          intervals and an environment fingerprint.")
    perf_run_term

let diff_a_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc:"Baseline artifact (JSON).")

let diff_b_arg =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"B" ~doc:"Candidate artifact (JSON).")

let diff_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH" ~doc:"Also write the report as JSON to $(docv).")

let diff_prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"PATH"
        ~doc:"Also write perf_diff_* Prometheus gauges to $(docv).")

let alpha_arg =
  Arg.(
    value
    & opt open_unit_float 0.05
    & info [ "alpha" ] ~docv:"A" ~doc:"Mann-Whitney significance threshold.")

let fail_on_regression_arg =
  Arg.(
    value
    & flag
    & info [ "fail-on-regression" ]
        ~doc:"Exit non-zero when any configuration shows a significant regression.")

let perf_diff a b alpha json_out prom_out fail_on_regression =
  with_errors @@ fun () ->
  let load path =
    match Artifact.load path with Ok art -> art | Error e -> failwith e
  in
  let report = Diff.compare_artifacts ~alpha (load a) (load b) in
  print_string (Diff.render report);
  Option.iter (fun path -> Lc_obs.Codec.write Diff.document ~path report) json_out;
  Option.iter (fun path -> Lc_obs.Export.write_file ~path (Diff.prometheus report)) prom_out;
  if fail_on_regression && Diff.has_regression report then begin
    Printf.printf "%d configuration(s) regressed significantly\n" report.Diff.regressions;
    exit 1
  end

let perf_diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two bench artifacts configuration by configuration: Mann-Whitney U on the \
          raw trial samples plus bootstrap-CI overlap, flagging a change only when both \
          agree.")
    Term.(
      ret
        (const perf_diff $ diff_a_arg $ diff_b_arg $ alpha_arg $ diff_json_arg $ diff_prom_arg
       $ fail_on_regression_arg))

let perf_cmd =
  Cmd.group ~default:perf_run_term
    (Cmd.info "perf"
       ~doc:
         "Performance trajectory: run the bench suite into schema-versioned artifacts and \
          diff artifacts for statistically significant regressions.")
    [ perf_run_cmd; perf_diff_cmd ]

(* ------------------------------------------------------------------ *)

module Scaling = Lc_perf.Scaling

let max_domains_arg =
  Arg.(
    value
    & opt positive_int 4
    & info [ "max-domains" ] ~docv:"M" ~doc:"Sweep domain counts 1 through $(docv).")

let scale_queries_arg =
  Arg.(
    value
    & opt positive_int 2000
    & info [ "queries" ] ~docv:"Q" ~doc:"Queries per domain per trial.")

let scale_trials_arg =
  Arg.(value & opt positive_int 3 & info [ "trials" ] ~docv:"T" ~doc:"Trials per sweep point.")

let scale_out_arg =
  Arg.(
    value
    & opt string "SCALING.json"
    & info [ "out"; "o" ] ~docv:"PATH" ~doc:"Write the lowcon-scaling artifact to $(docv).")

let scale seed n dist structure max_domains queries trials out =
  with_errors @@ fun () ->
  if structure = Lc_perf.Select.dynamic_name then
    failwith "lowcon scale sweeps static read-side serving; lc-dyn is not supported here";
  let spec =
    {
      Scaling.structure;
      workload = dist;
      domain_counts = List.init max_domains (fun i -> i + 1);
      queries_per_domain = queries;
      trials;
      n;
    }
  in
  let art = Scaling.run ~progress:(fun label -> Printf.printf "  %s\n%!" label) ~seed spec in
  print_newline ();
  print_string (Scaling.render art);
  Scaling.write ~path:out art;
  (* Read back through the strict decoder: a written artifact that does
     not validate must never be reported as written. *)
  (match Scaling.load out with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "written artifact fails validation — %s" e));
  Printf.printf "\nWrote %s (%s v%d, seed %d).\n" out Scaling.schema_name
    Scaling.schema_version seed

let scale_cmd =
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Serve one structure across a 1..M domain sweep with phase and GC attribution, fit \
          the Universal Scalability Law to the throughput curve, and write a schema-versioned \
          lowcon-scaling artifact (lambda / sigma / kappa, per-phase time shares, allocation \
          per query).")
    Term.(
      ret
        (const scale $ seed_arg $ n_arg $ dist_arg $ structure_arg $ max_domains_arg
       $ scale_queries_arg $ scale_trials_arg $ scale_out_arg))

(* ------------------------------------------------------------------ *)

let postmortem_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"DUMP" ~doc:"A postmortem JSON written by $(b,--dump-on-alert).")

let postmortem_cmd =
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Reconstruct an alert timeline from a flight-recorder dump: stages, worker \
          publications, window cuts, the raising window and the hot-cell sketch at the \
          raise.")
    Term.(
      ret
        (const (fun path ->
             with_errors @@ fun () ->
             match Postmortem.load path with
             | Ok pm -> print_string (Postmortem.analyze pm)
             | Error e -> failwith e)
        $ postmortem_file_arg))

(* ------------------------------------------------------------------ *)

let validate_files_arg =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"ARTIFACT"
        ~doc:
          "Artifact files (BENCH_*.json, postmortem dumps, *.prom, *.metrics.json, \
           *.trace.json) or a $(b,lowcon profile) output prefix, which expands to its three \
           files.")

(* A scrape line is either a comment or "name[{labels}] value", and a
   family is typed once: [typed] maps each typed family to the line of
   its # TYPE. *)
let check_prom_line typed lineno line =
  match String.split_on_char ' ' line with
  | "#" :: "TYPE" :: family :: _ -> (
    match Hashtbl.find_opt typed family with
    | Some first ->
      Error (Printf.sprintf "family %s typed again (first # TYPE at line %d)" family first)
    | None ->
      Hashtbl.add typed family lineno;
      Ok ())
  | _ when line = "" || String.length line >= 2 && String.sub line 0 2 = "# " -> Ok ()
  | _ -> (
    match String.rindex_opt line ' ' with
    | None -> Error "no value separator"
    | Some i ->
      let value = String.sub line (i + 1) (String.length line - i - 1) in
      let name = String.sub line 0 i in
      if name = "" then Error "empty series name"
      else if float_of_string_opt value = None then
        Error (Printf.sprintf "unparseable value %S" value)
      else Ok ())

(* Every schema-versioned document, keyed by its "schema" member. *)
let documents =
  Lc_obs.Codec.
    [
      validator Artifact.document;
      validator Scaling.document;
      validator Postmortem.document;
      validator Diff.document;
      validator Lc_lint.Report.document;
      validator Engine.Monitor.updates_document;
      validator Engine.Monitor.scaling_document;
      validator Engine.Monitor.control_document;
    ]

(* Per-file verdict: Ok describes what was recognised, Error what broke.
   Recognition is by content (the "schema" member), not by filename, so
   a renamed artifact still validates against the right grammar. *)
let validate_one path =
  let ( let* ) = Result.bind in
  let* text = Lc_obs.Codec.read_file path in
  if Filename.check_suffix path ".prom" then begin
    let lines = String.split_on_char '\n' text in
    let typed = Hashtbl.create 64 in
    let series = ref 0 in
    let first_err = ref None in
    List.iteri
      (fun i line ->
        match check_prom_line typed (i + 1) line with
        | Ok () -> if line <> "" && line.[0] <> '#' then incr series
        | Error e ->
          if !first_err = None then
            first_err := Some (Printf.sprintf "line %d: %s" (i + 1) e))
      lines;
    match !first_err with
    | Some e -> Error e
    | None ->
      if !series = 0 then Error "no series lines"
      else Ok (Printf.sprintf "prometheus exposition, %d series lines" !series)
  end
  else
    match Lc_obs.Json.parse text with
    | Error e -> Error ("invalid JSON — " ^ e)
    | Ok doc -> (
      match Lc_obs.Json.member "schema" doc with
      | Some (Lc_obs.Json.String s) -> (
        match List.assoc_opt s documents with
        | Some check -> check doc
        | None -> Error (Printf.sprintf "unknown schema %S" s))
      | Some _ -> Error "\"schema\" member is not a string"
      | None -> (
        match (Lc_obs.Json.member "version" doc, Lc_obs.Json.member "runs" doc) with
        | Some (Lc_obs.Json.String v), Some _ when v = Lc_lint.Sarif.version -> (
          (* SARIF has "$schema"/"version", not our "schema" member. *)
          match Lc_lint.Sarif.validate doc with
          | Ok () -> Ok (Printf.sprintf "SARIF %s, structurally valid" Lc_lint.Sarif.version)
          | Error e -> Error ("invalid SARIF — " ^ e))
        | _ -> (
          (* Legacy unversioned artifacts from lowcon profile. *)
          match Lc_obs.Json.member "counters" doc with
          | Some (Lc_obs.Json.Obj _) -> Ok "metrics snapshot (valid JSON with counters)"
          | Some _ -> Error "\"counters\" member is not an object"
          | None -> Ok "valid JSON")))

let validate files =
  with_errors @@ fun () ->
  let expand p =
    if (not (Sys.file_exists p)) && Sys.file_exists (p ^ ".trace.json") then
      [ p ^ ".trace.json"; p ^ ".metrics.json"; p ^ ".prom" ]
    else [ p ]
  in
  let failed = ref 0 in
  List.iter
    (fun path ->
      match validate_one path with
      | Ok msg -> Printf.printf "%-40s ok (%s)\n" path msg
      | Error msg ->
        incr failed;
        Printf.printf "%-40s FAIL (%s)\n" path msg)
    (List.concat_map expand files);
  (* Same exit contract as lint: 1 = findings (here: failed artifacts),
     2 = usage errors (handled by the driver in main). *)
  if !failed > 0 then begin
    Printf.printf "%d artifact(s) failed validation\n" !failed;
    exit 1
  end

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Grammar-check artifacts by decoding them against their schemas: BENCH_*.json \
          (lowcon-bench), lowcon scale sweeps (lowcon-scaling), postmortem dumps \
          (lowcon-postmortem), perf diff reports (lowcon-perf-diff), lint reports \
          (lowcon-lint), and /updates.json, /scaling.json and /control.json scrapes \
          (lowcon-updates, lowcon-scaling-live, lowcon-control); SARIF structurally, metrics \
          JSON for its counters object, and .prom files against the Prometheus exposition \
          line grammar with one # TYPE line per family. One pass/fail line per file; exit 1 \
          if any file fails.")
    Term.(ret (const validate $ validate_files_arg))

(* ------------------------------------------------------------------ *)

module Lint_report = Lc_lint.Report
module Lint_driver = Lc_lint.Driver

let lint_root_arg =
  Arg.(
    value
    & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to scan (lints every .ml under \\$(docv)/lib).")

let lint_json_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Emit the schema-versioned lowcon-lint report as JSON to $(docv) ('-' or no value: \
           stdout, replacing the text rendering).")

let lint_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"PATH"
        ~doc:
          "Allowlist of suppressed findings (default: ROOT/lint-baseline.txt when present). \
           Each line: '<RULE> <file> <context> [owner=M.f] [protocol=NAME] \
           [expires=YYYY-MM-DD] -- <justification>'. owner= claims are verified by LC006; \
           entries with neither tag warn as prose-only.")

let lint_no_baseline_arg =
  Arg.(
    value & flag & info [ "no-baseline" ] ~doc:"Ignore any baseline; report raw findings.")

let lint_rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"LIST"
        ~doc:"Comma-separated rule subset to run (e.g. 'LC001,LC005'; default: all).")

let lint_self_check_arg =
  Arg.(
    value
    & flag
    & info [ "self-check" ]
        ~doc:
          "Instead of linting, parse every .ml and .mli in the repository, load every .cmt \
           under lib/, and check every lib/ module is covered by one; exit 2 on any failure \
           — proof the typed rules saw the whole tree.")

let lint_sarif_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "sarif" ] ~docv:"PATH"
        ~doc:
          "Also emit the report as SARIF 2.1.0 to $(docv) ('-' or no value: stdout) for \
           GitHub code scanning; baseline-suppressed findings carry external suppressions.")

let lint_gh_summary_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "gh-summary" ] ~docv:"PATH"
        ~doc:"Also append a Markdown findings table to $(docv) (GitHub job summary format).")

let lint_show_suppressed_arg =
  Arg.(
    value
    & flag
    & info [ "show-suppressed" ]
        ~doc:"Include baseline-suppressed findings (with their justifications) in text output.")

let usage_error msg =
  prerr_endline ("lowcon: lint: " ^ msg);
  exit 2

let lint root json_out sarif_out baseline_path no_baseline rules_opt self_check gh_summary
    show_suppressed =
  `Ok
    (if self_check then begin
       let sc = Lint_driver.self_check ~root () in
       List.iter
         (fun (pe : Lint_report.parse_error) ->
           Printf.printf "%s:%d:%d: parse error: %s\n" pe.pe_file pe.pe_line pe.pe_col
             pe.pe_message)
         sc.Lint_driver.sc_errors;
       Printf.printf "self-check: %d file(s) parsed, %d .cmt(s) loaded, %d failure(s)\n"
         sc.Lint_driver.sc_parsed sc.Lint_driver.sc_cmts
         (List.length sc.Lint_driver.sc_errors);
       exit (if sc.Lint_driver.sc_errors = [] then 0 else 2)
     end
     else begin
       let rules =
         match rules_opt with
         | None -> Lc_lint.Rule.all
         | Some s -> (
           match Lc_lint.Rule.parse_list s with Ok rs -> rs | Error e -> usage_error e)
       in
       let baseline =
         if no_baseline then None
         else
           let path =
             match baseline_path with
             | Some p -> Some p
             | None ->
               let d = Filename.concat root "lint-baseline.txt" in
               if Sys.file_exists d then Some d else None
           in
           match path with
           | None -> None
           | Some p -> (
             match Lc_lint.Baseline.load p with
             | Ok b -> Some b
             | Error e -> usage_error ("bad baseline: " ^ e))
       in
       let report = Lint_driver.run ~rules ?baseline ~root () in
       let json_to_stdout = json_out = Some "-" || sarif_out = Some "-" in
       (match json_out with
       | Some "-" -> print_endline (Lc_obs.Json.to_string (Lint_report.to_json report))
       | Some path ->
         Lc_obs.Export.write_file ~path
           (Lc_obs.Json.to_string (Lint_report.to_json report) ^ "\n")
       | None -> ());
       (match sarif_out with
       | Some "-" ->
         print_endline (Lc_obs.Json.to_string (Lc_lint.Sarif.of_report report))
       | Some path ->
         Lc_obs.Export.write_file ~path
           (Lc_obs.Json.to_string (Lc_lint.Sarif.of_report report) ^ "\n")
       | None -> ());
       if not json_to_stdout then
         print_string (Lint_report.render_text ~show_suppressed report);
       Option.iter
         (fun path ->
           let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () -> output_string oc (Lint_report.render_markdown report)))
         gh_summary;
       exit (Lint_report.exit_code report)
     end)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Typed static concurrency and hot-path analysis over the .cmt files dune emits for \
          lib/: non-atomic read-modify-writes (LC001), blocking primitives on hot paths \
          (LC002), un-Atomic shared mutable state (LC003), allocation in manifest hot \
          functions (LC004), Obj.magic (LC005), call-graph verification of baseline owner= \
          single-writer claims (LC006), published-state reads without a dominating pin \
          (LC007), and transitive hot-path allocation accounting (LC008). Exits 0 when clean \
          or fully suppressed by the committed baseline, 1 on active findings, 2 on usage \
          errors or .cmt files that are missing or do not load.")
    Term.(
      ret
        (const lint $ lint_root_arg $ lint_json_arg $ lint_sarif_arg $ lint_baseline_arg
       $ lint_no_baseline_arg $ lint_rules_arg $ lint_self_check_arg $ lint_gh_summary_arg
       $ lint_show_suppressed_arg))

let () =
  let doc = "Workbench for low-contention static dictionaries (SPAA 2010)" in
  let man =
    [
      `S "EXIT CODES";
      `P
        "All commands follow one convention: 0 on success ($(b,lint): no unsuppressed \
         findings; $(b,validate): every artifact passes), 1 when the check itself fails \
         ($(b,lint): active findings; $(b,validate): failed artifacts; $(b,perf diff \
         --fail-on-regression): significant regression), 2 on usage errors or inputs the \
         tool cannot read (bad flags, unparseable sources, malformed baselines).";
    ]
  in
  let code =
    Cmd.eval
      (Cmd.group
         (Cmd.info "lowcon" ~version:"1.0.0" ~doc ~man)
         [
           report_cmd;
           compare_cmd;
           hotspot_cmd;
           profile_cmd;
           monitor_cmd;
           perf_cmd;
           scale_cmd;
           postmortem_cmd;
           validate_cmd;
           lint_cmd;
         ])
  in
  (* cmdliner's cli_error is 124; fold it into the documented usage-error
     code so scripts and CI see the 0/1/2 contract everywhere. *)
  exit (if code = 124 then 2 else code)
