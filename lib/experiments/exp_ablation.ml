(* T10 and F8: ablations of the construction's design choices.

   T10 sweeps the paper's constants (d, delta, beta, alpha, c) and
   reports the cost/contention trade-off each controls. F8 removes the
   construction's levelling mechanisms one at a time — replication of
   the hash-function rows, replication of the displacement vector,
   spreading the per-bucket metadata — by surgically degrading the probe
   plans (the query algorithm could trivially be changed to match), and
   measures what each mechanism buys. *)

module Rng = Lc_prim.Rng
module Spec = Lc_cellprobe.Spec
module Contention = Lc_cellprobe.Contention
module Qdist = Lc_cellprobe.Qdist
module Tablefmt = Lc_analysis.Tablefmt
module Experiment = Lc_analysis.Experiment

let t10 =
  {
    Experiment.id = "T10";
    title = "Parameter ablation: d, delta, beta, alpha, c (extension)";
    claim =
      "Section 2.2 fixes c = 2e and asks for d > 2, delta in (2/(d+2), 1-1/d), alpha > d/(c(ln \
       c - 1)), beta >= 2. The sweep shows what each constant buys: beta trades space for the \
       FKS margin, d trades probes for independence, alpha trades histogram width (rho) \
       against group count.";
    run =
      (fun ~seed ->
        let n = 2048 in
        let rng = Rng.create seed in
        let universe = Common.universe_for n in
        let keys = Lc_workload.Keyset.random rng ~universe ~n in
        let qd = Qdist.uniform ~name:"pos" keys in
        let tbl =
          Tablefmt.create
            ~title:(Printf.sprintf "T10: parameter sweep at n = %d (uniform positive)" n)
            ~columns:
              [
                "variant"; "rows"; "cells/n"; "probes"; "rho"; "m"; "r"; "norm contention";
                "build trials";
              ]
        in
        let arm label ?d ?delta ?alpha ?beta ?c () =
          let dict =
            Lc_core.Dictionary.build ?d ?delta ?alpha ?beta ?c rng ~universe ~keys
          in
          let p = Lc_core.Dictionary.params dict in
          let inst = Lc_core.Dictionary.instance dict in
          let cont = Lc_dict.Instance.contention_exact inst qd in
          Tablefmt.add_row tbl
            [
              label;
              string_of_int (Lc_core.Params.rows p);
              Printf.sprintf "%.1f" (float_of_int inst.space /. float_of_int n);
              string_of_int inst.max_probes;
              string_of_int p.rho;
              string_of_int p.m;
              string_of_int p.r;
              Printf.sprintf "%.1f" (Contention.normalized_max cont);
              string_of_int (Lc_core.Dictionary.build_trials dict);
            ]
        in
        arm "defaults (d=3 δ=.5 α=2 β=2 c=2e)" ();
        arm "d = 4" ~d:4 ~delta:0.55 ();
        arm "d = 5" ~d:5 ~delta:0.55 ();
        arm "delta = 0.45 (larger r)" ~delta:0.45 ();
        arm "delta = 0.6 (smaller r)" ~delta:0.6 ();
        arm "beta = 3 (more space)" ~beta:3 ();
        arm "beta = 4" ~beta:4 ();
        arm "alpha = 1.5 (more groups)" ~alpha:1.5 ();
        arm "alpha = 4 (fewer groups)" ~alpha:4.0 ();
        arm "c = 3.0 (tight caps)" ~c:3.0 ~alpha:12.0 ();
        Tablefmt.render tbl
        ^ "\nReading: the normalized contention constant ~ rows (every probe spreads over one \
           row), so fewer probe rows (small d, small rho via large alpha) is the contention \
           knob; beta buys FKS margin with cells/n; tight c raises build trials.");
  }

(* F8: degrade the real structure's probe plans to measure each
   levelling mechanism. The surgeries keep each step's support inside
   cells the query algorithm really could read (first replica of the
   row / residue), so every degraded plan is still executable. *)
let degrade_spec (p : Lc_core.Params.t) ~kill_coeff ~kill_z ~kill_meta spec_fn x =
  let coeff_rows = 2 * p.d and cs = Lc_core.Layout.column_stride p in
  let plan = spec_fn x in
  Array.mapi
    (fun i st ->
      match st with
      | Spec.Stride { base; stride; count } when i < coeff_rows && stride = cs && count = p.s ->
        if kill_coeff then Spec.Point base else st
      | Spec.Stride { base; stride; count = _ } when i = coeff_rows && stride = p.r * cs ->
        if kill_z then Spec.Point base else st
      | Spec.Stride { base; stride; count = _ }
        when i > coeff_rows && i <= coeff_rows + 1 + p.rho && stride = p.m * cs ->
        if kill_meta then Spec.Point base else st
      | other -> other)
    plan

let f8 =
  {
    Experiment.id = "F8";
    title = "Component ablation: what each replication mechanism buys (extension)";
    claim =
      "The construction levels three things: the hash-function words (rows replicated s \
       times), the displacement vector z (each entry replicated s/r times), and the group \
       metadata / histograms (replicated s/m times). Removing any one re-creates a hot cell; \
       this is the quantified version of Section 2's 'we can reduce the contention ... by \
       replication'.";
    run =
      (fun ~seed ->
        let n = 2048 in
        let rng = Rng.create seed in
        let universe = Common.universe_for n in
        let keys = Lc_workload.Keyset.random rng ~universe ~n in
        let dict = Common.lc_build rng ~universe ~keys in
        let p = Lc_core.Dictionary.params dict in
        let inst = Lc_core.Dictionary.instance dict in
        let qd = Qdist.uniform ~name:"pos" keys in
        let tbl =
          Tablefmt.create
            ~title:(Printf.sprintf "F8: probe-plan ablations at n = %d (uniform positive)" n)
            ~columns:[ "variant"; "norm contention"; "vs full" ]
        in
        let full =
          Contention.normalized_max
            (Contention.exact ~cells:inst.space ~qdist:qd ~spec:inst.spec)
        in
        let arm label ~kill_coeff ~kill_z ~kill_meta =
          let spec = degrade_spec p ~kill_coeff ~kill_z ~kill_meta inst.spec in
          let c =
            Contention.normalized_max (Contention.exact ~cells:inst.space ~qdist:qd ~spec)
          in
          Tablefmt.add_row tbl
            [ label; Printf.sprintf "%.0f" c; Printf.sprintf "%.1fx" (c /. full) ]
        in
        Tablefmt.add_row tbl [ "full construction"; Printf.sprintf "%.0f" full; "1.0x" ];
        arm "no hash-word replication" ~kill_coeff:true ~kill_z:false ~kill_meta:false;
        arm "no z replication" ~kill_coeff:false ~kill_z:true ~kill_meta:false;
        arm "no metadata replication" ~kill_coeff:false ~kill_z:false ~kill_meta:true;
        arm "no replication at all" ~kill_coeff:true ~kill_z:true ~kill_meta:true;
        Tablefmt.render tbl
        ^ "\nExpected shape: killing the hash-word replication puts contention 1 on one cell \
           (normalized = s_total); killing z costs ~ max g-bucket load * r/s of that; killing \
           the metadata costs ~ max group load; the full construction needs all three.");
  }

let register () =
  Experiment.register t10;
  Experiment.register f8
