(* The multicore serving engine, end to end:

     dune exec examples/parallel_serving.exe

   The engine in [Lc_parallel.Engine] runs the *actual query algorithm*
   — the same [Dict_intf.S] core the sequential experiments use — from
   m domains at once, each counting its probes in its own per-cell
   tally (summed after the join). Concurrent reads of one cell share
   its cache line without writing it, so a second pass turns on the
   shared per-cell spinlock cost model: probes that land on the same
   cell genuinely serialise the way writes to a contended cache line
   do, and now the hot-spot column is paid for
   in wall-clock time, and the low-contention dictionary's extra probes
   per query stop mattering because none of them queue. *)

module Rng = Lc_prim.Rng
module Qdist = Lc_cellprobe.Qdist
module Engine = Lc_parallel.Engine

let qpd = 30_000

let run_pass ~cost ~label arms qdist =
  Printf.printf "-- %s --\n" label;
  Printf.printf "%-16s %3s %10s %12s %10s %8s %9s\n" "structure" "m" "kqueries/s" "hottest cell"
    "x flat" "share%" "seconds";
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun domains ->
          let o =
            Engine.run
              (Engine.Config.make ~cost ~domains ~seed:11 ())
              (Engine.Static { inst; qdist; queries_per_domain = qpd })
          in
          let r = o.Engine.result in
          Printf.printf "%-16s %3d %10.0f %12d %10.1f %8.2f %9.3f\n" name domains
            (r.throughput /. 1e3) r.hottest_count (Engine.hotspot_ratio r)
            (100.0 *. r.hottest_share) r.seconds)
        [ 1; 2; 4 ])
    arms;
  print_newline ()

let () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "Serving membership queries from multiple domains against one shared table\n\
     (machine reports %d core(s); per-cell tallies are exact regardless).\n\n"
    cores;
  let rng = Rng.create 7 in
  let universe = 1 lsl 20 in
  let n = 1024 in
  let keys = Lc_workload.Keyset.random rng ~universe ~n in
  let arms =
    [
      ("low-contention", Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys));
      ( "fks (no repl.)",
        Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys) );
      ("binary-search", Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys));
    ]
  in
  let qdist = Qdist.uniform ~name:"uniform-positive" keys in
  run_pass ~cost:Engine.Free ~label:"free probes (atomic counting only)" arms qdist;
  run_pass
    ~cost:(Engine.Spinlock { hold = 8 })
    ~label:"spinlock cost model (hold = 8): same-cell probes serialise" arms qdist;
  Printf.printf
    "Reading: 'x flat' is the hottest cell's probe tally over the flat bound q*t/s —\n\
     O(1) for the low-contention dictionary (Theorem 3), Theta(s) for structures with\n\
     an unreplicated shared cell. With the spinlock model, every probe to a hot cell\n\
     waits for the previous one, so fks and binary-search throughput collapses as m\n\
     grows while the low-contention dictionary keeps scaling: the O(1/n) contention\n\
     bound, observed as wall-clock.\n"
