(* T12: the multicore serving engine — real domains, per-domain per-cell
   probe tallies — turns the contention bound of Theorem 3 into a
   measured quantity. The quantity to watch is "x flat": the hottest
   cell's tally divided by the flat bound q*t/s. For the low-contention
   dictionary it is O(1); for any structure that routes every query
   through an unreplicated cell it is Theta(s). *)

module Rng = Lc_prim.Rng
module Tablefmt = Lc_analysis.Tablefmt
module Experiment = Lc_analysis.Experiment
module Qdist = Lc_cellprobe.Qdist
module Engine = Lc_parallel.Engine

let t12 =
  {
    Experiment.id = "T12";
    title = "Multicore serving: throughput and per-cell probe counts";
    claim =
      "Theorem 3, measured instead of counted: with m domains serving queries against one \
       shared table, the low-contention dictionary's hottest per-cell tally stays within a \
       constant factor of the flat bound q*t/s (contention O(1/n)), while FKS's \
       unreplicated top-level parameter cell and binary search's root absorb a constant \
       fraction of all probes — Theta(s) over the flat bound — and, under the spinlock cost \
       model, serialise every domain behind one lock.";
    run =
      (fun ~seed ->
        let n = 512 in
        let rng = Rng.create seed in
        let universe = Common.universe_for n in
        let keys = Lc_workload.Keyset.random rng ~universe ~n in
        let arms =
          [
            ( "low-contention",
              Lc_core.Dictionary.instance (Common.lc_build rng ~universe ~keys) );
            ( "fks (no repl.)",
              Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys) );
            ( "dm-replicated",
              Lc_dict.Dm_dict.instance (Lc_dict.Dm_dict.build ~replicate:true rng ~universe ~keys)
            );
            ( "cuckoo-repl.",
              Lc_dict.Cuckoo.instance (Lc_dict.Cuckoo.build ~replicate:true rng ~universe ~keys)
            );
            ( "binary-search",
              Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys) );
          ]
        in
        let pos = Qdist.uniform ~name:"uniform-positive" keys in
        let zipf = Qdist.zipf ~skew:1.0 keys in
        let qpd = 4_000 in
        let tbl =
          Tablefmt.create
            ~title:
              (Printf.sprintf
                 "T12: m domains x %d queries each, per-domain per-cell tallies (n = %d)" qpd n)
            ~columns:
              [
                "structure"; "dist"; "m"; "queries"; "kq/s"; "hottest"; "flat q*t/s"; "x flat";
                "share %"; "p50 us"; "p99 us"; "lockwait ms";
              ]
        in
        List.iter
          (fun (label, inst) ->
            List.iter
              (fun (dname, qd, cost, ms) ->
                List.iter
                  (fun m ->
                    (* A fresh handle per run: the per-domain latency
                       histograms and spin-wait totals below come from
                       this serve alone. *)
                    let obs = Lc_obs.Obs.create () in
                    let o =
                      Engine.run
                        (Engine.Config.make ~cost ~obs ~domains:m ~seed:(seed + (13 * m)) ())
                        (Engine.Static { inst; qdist = qd; queries_per_domain = qpd })
                    in
                    let r = o.Engine.result in
                    let snap = Lc_obs.Obs.snapshot obs in
                    let lat_q q =
                      match
                        Lc_obs.Metrics.Snapshot.find_hist snap Lc_obs.Window.latency_histogram
                      with
                      | Some h -> Lc_obs.Metrics.Snapshot.quantile h q /. 1e3
                      | None -> 0.0
                    in
                    let lock_wait_ms =
                      match Lc_obs.Metrics.Snapshot.find_hist snap "engine_spinlock_wait_ns" with
                      | Some h -> float_of_int h.sum /. 1e6
                      | None -> 0.0
                    in
                    Tablefmt.add_row tbl
                      [
                        label;
                        dname;
                        string_of_int m;
                        string_of_int r.queries;
                        Printf.sprintf "%.0f" (r.throughput /. 1e3);
                        string_of_int r.hottest_count;
                        Printf.sprintf "%.1f" r.flat_bound;
                        Printf.sprintf "%.1f" (Engine.hotspot_ratio r);
                        Printf.sprintf "%.2f" (100.0 *. r.hottest_share);
                        Printf.sprintf "%.1f" (lat_q 0.5);
                        Printf.sprintf "%.1f" (lat_q 0.99);
                        Printf.sprintf "%.2f" lock_wait_ms;
                      ])
                  ms)
              [
                ("uniform", pos, Engine.Free, [ 1; 2; 4 ]);
                ("zipf(1.0)", zipf, Engine.Free, [ 4 ]);
                ("unif+spin16", pos, Engine.Spinlock { hold = 16 }, [ 4 ]);
              ])
          arms;
        Tablefmt.render tbl
        ^ "\nExpected shape: under the uniform distribution (the Theorem 3 regime) the \
           low-contention dictionary's 'x flat' stays O(1) at every domain count, so no cell \
           serialises the domains; fks (no repl.) and binary-search concentrate 25% / ~1/log n \
           of all probes on their hottest cell, putting 'x flat' in the hundreds — the \
           Theta(sqrt n)-vs-O(1/n) separation of Section 1.3 as hardware traffic. Under \
           zipf(1.0) every bounded-probe structure shows a hot data cell (the repeated query's \
           own Point probe — replication cannot spread one query asked q_max of the time), but \
           the low-contention dictionary still beats the shared-cell structures by the same \
           Theta(s) factor. The telemetry columns (per-domain shard histograms, merged at \
           snapshot) localise the cost: p50/p99 per-query latency, and under the spinlock cost \
           model ('unif+spin16', every same-cell visit serialised with a 16-relax hold) the \
           summed wait time behind per-cell locks — a hot-cell structure spends orders of \
           magnitude more wall-clock waiting than the levelled dictionary. Wall-clock \
           throughput, latency, and wait columns depend on the machine's core count; the \
           per-cell tallies do not.");
  }

let register () = Experiment.register t12
