type result = {
  cells : int;
  per_cell : float array;
  per_step_max : float array;
  max_total : float;
  max_step : float;
  mean_probes : float;
}

let finish ~cells ~per_cell ~per_step_max ~mean_probes =
  {
    cells;
    per_cell;
    per_step_max;
    max_total = Array.fold_left Float.max 0.0 per_cell;
    max_step = Array.fold_left Float.max 0.0 per_step_max;
    mean_probes;
  }

(* Exact contention by pattern aggregation: queries sharing a probe
   pattern (same step, base, stride, count — e.g. "a uniform cell of row
   3") pool their probability mass first, and each pooled pattern is
   expanded over its cells once. This turns O(|support| * s) into
   O(|support| * steps + patterns * cells-per-pattern). *)
let exact ~cells ~qdist ~spec =
  let support = Qdist.support qdist in
  let max_steps =
    Array.fold_left (fun acc (x, _) -> max acc (Spec.probes (spec x))) 0 support
  in
  let step_accs : (int * int * int, float) Hashtbl.t array =
    Array.init max_steps (fun _ -> Hashtbl.create 64)
  in
  let add_mass tbl key w =
    let prev = try Hashtbl.find tbl key with Not_found -> 0.0 in
    Hashtbl.replace tbl key (prev +. w)
  in
  let mean_probes = ref 0.0 in
  Array.iter
    (fun (x, qx) ->
      let plan = spec x in
      mean_probes := !mean_probes +. (qx *. float_of_int (Spec.probes plan));
      Array.iteri
        (fun t st ->
          let tbl = step_accs.(t) in
          match st with
          | Spec.Point j -> add_mass tbl (j, 1, 1) qx
          | Spec.Stride { base; stride; count } -> add_mass tbl (base, stride, count) qx)
        plan)
    support;
  let per_cell = Array.make cells 0.0 in
  let scratch = Array.make cells 0.0 in
  let per_step_max = Array.make max_steps 0.0 in
  Array.iteri
    (fun t tbl ->
      let touched = ref [] in
      Hashtbl.iter
        (fun (base, stride, count) mass ->
          let w = mass /. float_of_int count in
          for k = 0 to count - 1 do
            let j = base + (k * stride) in
            if scratch.(j) = 0.0 then touched := j :: !touched;
            scratch.(j) <- scratch.(j) +. w;
            per_cell.(j) <- per_cell.(j) +. w
          done)
        tbl;
      let mx = ref 0.0 in
      List.iter
        (fun j ->
          if scratch.(j) > !mx then mx := scratch.(j);
          scratch.(j) <- 0.0)
        !touched;
      per_step_max.(t) <- !mx)
    step_accs;
  finish ~cells ~per_cell ~per_step_max ~mean_probes:!mean_probes

let monte_carlo ~table ~qdist ~mem ~rng ~queries =
  if queries <= 0 then invalid_arg "Contention.monte_carlo: queries must be positive";
  Table.reset_counters table;
  for _ = 1 to queries do
    let x = Qdist.sample qdist rng in
    ignore (mem rng x : bool)
  done;
  let cells = Table.size table in
  let k = float_of_int queries in
  let per_cell = Array.init cells (fun j -> float_of_int (Table.probes table j) /. k) in
  let steps = Table.max_step table in
  let per_step_max =
    Array.init steps (fun t ->
        let mx = ref 0 in
        for j = 0 to cells - 1 do
          let c = Table.probes_at table ~step:t j in
          if c > !mx then mx := c
        done;
        float_of_int !mx /. k)
  in
  let mean_probes = float_of_int (Table.total_probes table) /. k in
  Table.reset_counters table;
  finish ~cells ~per_cell ~per_step_max ~mean_probes

let normalized_max r = float_of_int r.cells *. r.max_total
let normalized_step_max r = float_of_int r.cells *. r.max_step

let profile r =
  let s = float_of_int r.cells in
  let prof = Array.map (fun phi -> s *. phi) r.per_cell in
  Array.sort (fun a b -> compare b a) prof;
  prof
