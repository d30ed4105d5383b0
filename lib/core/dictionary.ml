type t = Structure.t

exception Build_failed = Structure.Build_failed

let build ?d ?delta ?c ?alpha ?beta ?max_trials ?obs rng ~universe ~keys =
  let params = Params.make ?d ?delta ?c ?alpha ?beta ~universe ~n:(Array.length keys) () in
  Structure.build ?max_trials ?obs rng params ~keys

let mem t rng x = Query.mem t rng x
let params (t : t) = t.params
let structure t = t
let space (t : t) = Lc_cellprobe.Table.size t.table
let max_probes t = Query.max_probes t
let build_trials (t : t) = t.trials
let spec t x = Query.spec t x

let core (t : t) : (module Lc_dict.Dict_intf.S) =
  (module struct
    let name = "low-contention"
    let table = t.table
    let space = space t
    let max_probes = max_probes t
    let mem ~probe rng x = Query.mem_probe t ~probe rng x
    let spec x = spec t x
  end)

let instance t = Lc_dict.Instance.of_core (core t)

let verify t = Verify.check t
