(* T17: the scaling observatory's headline claim, measured. The paper's
   replication argument says the low-contention dictionary should keep
   its serialisation penalty small as domains are added: what limits
   throughput(n) is the contention coefficient sigma in Gunther's USL,
   and replication exists precisely to shrink it. This experiment runs
   the same read-side sweep over the low-contention structure and
   unreplicated FKS, fits both curves, and compares the fitted sigmas —
   the number the whole construction is supposed to move. Phase shares
   and allocation gauges ride along so a sigma difference can be
   attributed to probe-path contention rather than GC or engine
   overhead. *)

module Tablefmt = Lc_analysis.Tablefmt
module Experiment = Lc_analysis.Experiment
module Usl = Lc_analysis.Usl
module Scaling = Lc_perf.Scaling
module Engine = Lc_parallel.Engine

let t17 =
  {
    Experiment.id = "T17";
    title = "USL contention fit: lc vs unreplicated FKS across domain counts";
    claim =
      "Fitting throughput(n) = lambda*n / (1 + sigma*(n-1) + kappa*n*(n-1)) to a 1..4 \
       domain sweep over the same key set and query distribution: on a machine with at \
       least as many hardware cores as the largest sweep point, the low-contention \
       dictionary's fitted sigma is smaller than unreplicated FKS's — replication \
       spreads the hot probes across cells, so adding domains serialises less of the \
       work. On core-starved machines the sweep degenerates honestly: the rendered core \
       count and per-point idle shares say so, and the fitted sigma measures scheduler \
       time-slicing, not cell contention. Every point's per-worker phase attribution \
       reconciles exactly with its batch wall time (the sweep raises otherwise), and \
       the alloc/query gauge separates the structures' allocation behaviour (lc's \
       per-query probe-plan closures are the documented LC004 debt; FKS allocates a \
       few words) without either confounding the fit through GC pauses.";
    run =
      (fun ~seed ->
        let n = 512 in
        let domain_counts = [ 1; 2; 3; 4 ] in
        let queries_per_domain = 4_000 and trials = 3 in
        let cores = Domain.recommended_domain_count () in
        let tbl =
          Tablefmt.create
            ~title:
              (Printf.sprintf
                 "T17: throughput and phase shares, %d queries/domain x %d trials (n = %d, \
                  uniform positive, %d hardware core(s))"
                 queries_per_domain trials n cores)
            ~columns:
              [ "structure"; "domains"; "qps"; "ns/q"; "probe%"; "idle%"; "alloc/q" ]
        in
        let fits =
          List.map
            (fun structure ->
              let spec =
                {
                  Scaling.structure;
                  workload = "pos";
                  domain_counts;
                  queries_per_domain;
                  trials;
                  n;
                }
              in
              let art = Scaling.run ~seed spec in
              List.iter
                (fun (p : Scaling.point) ->
                  let ns = Engine.phase_ns p.Scaling.p_phases in
                  let wall = float_of_int (ns Engine.Wall) in
                  let share phase =
                    if wall = 0. then 0. else 100. *. float_of_int (ns phase) /. wall
                  in
                  Tablefmt.add_row tbl
                    [
                      structure;
                      string_of_int p.Scaling.p_domains;
                      Printf.sprintf "%.0f" p.Scaling.throughput.Lc_perf.Artifact.mean;
                      Printf.sprintf "%.0f" p.Scaling.p_ns_per_query;
                      Printf.sprintf "%.1f" (share Engine.Probe);
                      Printf.sprintf "%.1f" (share Engine.Idle);
                      Printf.sprintf "%.2f" p.Scaling.p_gc.Scaling.minor_words_per_query;
                    ])
                art.Scaling.points;
              (structure, art.Scaling.fit, art.Scaling.fit_error))
            [ "lc"; "fks-norepl" ]
        in
        let fit_lines =
          List.map
            (fun (structure, fit, fit_error) ->
              match (fit, fit_error) with
              | Some (f : Usl.fit), _ ->
                Printf.sprintf
                  "%-10s lambda = %.0f qps  sigma = %.4f  kappa = %.6f  r2 = %.4f"
                  structure f.Usl.lambda f.Usl.sigma f.Usl.kappa f.Usl.r2
              | None, Some e -> Printf.sprintf "%-10s USL fit rejected: %s" structure e
              | None, None -> Printf.sprintf "%-10s USL fit missing" structure)
            fits
        in
        let starved = cores < List.fold_left max 1 domain_counts in
        let sigma_verdict =
          match fits with
          | [ (_, Some lc, _); (_, Some fks, _) ] ->
            Printf.sprintf "sigma(lc) = %.4f vs sigma(fks-norepl) = %.4f — %s"
              lc.Usl.sigma fks.Usl.sigma
              (if starved then
                 Printf.sprintf
                   "INCONCLUSIVE: only %d core(s) for a %d-domain sweep, so the fit \
                    measures time-slicing, not cell contention (note the idle shares \
                    above)"
                   cores
                   (List.fold_left max 1 domain_counts)
               else if lc.Usl.sigma < fks.Usl.sigma then
                 "replication shrinks the serialisation coefficient as claimed"
               else "NOT smaller on this machine/seed; inspect the phase shares above")
          | _ -> "sigma comparison unavailable: at least one fit was rejected"
        in
        Tablefmt.render tbl ^ "\n" ^ String.concat "\n" fit_lines ^ "\n" ^ sigma_verdict
        ^ "\n\
           Expected shape (with enough cores): both structures scale, but the \
           unreplicated FKS curve bends away from linear sooner — its fitted sigma \
           exceeds lc's because every domain hammers the same unreplicated buckets. \
           Phase attribution reconciles per worker by construction; the alloc/q column \
           is the observatory's own finding — lc pays its per-query probe-plan \
           closures (the documented LC004 debt), FKS a few words — and neither moves \
           the fit through GC: major collections during a sweep point are rare at \
           these sizes.");
  }

let register () = Experiment.register t17
