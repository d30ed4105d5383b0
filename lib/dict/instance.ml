module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec
module Contention = Lc_cellprobe.Contention

type mode = Instrumented | Uninstrumented | Atomic_counters

type t = {
  name : string;
  table : Table.t;
  space : int;
  max_probes : int;
  mem : Lc_prim.Rng.t -> int -> bool;
  spec : int -> Spec.t;
  core : (module Dict_intf.S);
  mode : mode;
  counters : int Atomic.t array; (* length [space] iff mode = Atomic_counters *)
}

let instrumented_probe table : Dict_intf.probe = fun ~step j -> Table.read table ~step j
let uninstrumented_probe table : Dict_intf.probe = fun ~step:_ j -> Table.peek table j

let atomic_probe table counters : Dict_intf.probe =
 fun ~step:_ j ->
  Atomic.incr counters.(j);
  Table.peek table j

let make mode ((module D : Dict_intf.S) as core) =
  let counters =
    match mode with
    | Atomic_counters -> Array.init D.space (fun _ -> Atomic.make 0)
    | Instrumented | Uninstrumented -> [||]
  in
  let probe =
    match mode with
    | Instrumented -> instrumented_probe D.table
    | Uninstrumented -> uninstrumented_probe D.table
    | Atomic_counters -> atomic_probe D.table counters
  in
  {
    name = D.name;
    table = D.table;
    space = D.space;
    max_probes = D.max_probes;
    mem = (fun rng x -> D.mem ~probe rng x);
    spec = D.spec;
    core;
    mode;
    counters;
  }

let of_core core = make Instrumented core
let mode t = t.mode
let core t = t.core
let instrumented t = match t.mode with Instrumented -> t | _ -> make Instrumented t.core
let uninstrumented t = match t.mode with Uninstrumented -> t | _ -> make Uninstrumented t.core
let atomic t = make Atomic_counters t.core

let atomic_counts t =
  match t.mode with
  | Atomic_counters -> Array.map Atomic.get t.counters
  | Instrumented | Uninstrumented ->
    invalid_arg "Instance.atomic_counts: instance is not in atomic mode"

let contention_exact t qdist =
  Contention.exact ~cells:t.space ~qdist ~spec:t.spec

let contention_mc t qdist ~rng ~queries =
  let t = instrumented t in
  Contention.monte_carlo ~table:t.table ~qdist ~mem:t.mem ~rng ~queries

let check_spec_against_mem t ~rng ~queries =
  (* Re-instrument whatever mode the caller hands us: validation needs
     the table's per-step counters, but the verdict is about the core. *)
  let t = instrumented t in
  let table = t.table in
  let check_query x =
    let plan = t.spec x in
    (match Spec.validate ~cells:t.space plan with
    | Error e -> Error (Printf.sprintf "query %d: invalid spec: %s" x e)
    | Ok () -> Ok ())
    |> function
    | Error _ as e -> e
    | Ok () ->
      Table.reset_counters table;
      ignore (t.mem rng x : bool);
      let nsteps = Table.max_step table in
      if nsteps <> Spec.probes plan then
        Error
          (Printf.sprintf "query %d: mem made %d probes but spec plans %d" x nsteps
             (Spec.probes plan))
      else begin
        (* Each executed step must touch exactly one cell, inside the
           planned step's support. *)
        let bad = ref None in
        for step = 0 to nsteps - 1 do
          let touched = ref [] in
          for j = 0 to t.space - 1 do
            let c = Table.probes_at table ~step j in
            if c > 0 then touched := (j, c) :: !touched
          done;
          match !touched with
          | [ (j, 1) ] ->
            let in_support =
              Seq.exists (fun (cell, _) -> cell = j) (Spec.step_cells plan.(step))
            in
            if not in_support && !bad = None then
              bad := Some (Printf.sprintf "query %d step %d probed cell %d outside spec" x step j)
          | other ->
            if !bad = None then
              bad :=
                Some
                  (Printf.sprintf "query %d step %d probed %d cells (want exactly 1)" x step
                     (List.length other))
        done;
        Table.reset_counters table;
        match !bad with None -> Ok () | Some msg -> Error msg
      end
  in
  Array.fold_left
    (fun acc x -> match acc with Error _ -> acc | Ok () -> check_query x)
    (Ok ()) queries
