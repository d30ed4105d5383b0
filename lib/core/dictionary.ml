type t = Structure.t

exception Build_failed = Structure.Build_failed

let build ?d ?delta ?c ?alpha ?beta ?max_trials ?obs rng ~universe ~keys =
  let params = Params.make ?d ?delta ?c ?alpha ?beta ~universe ~n:(Array.length keys) () in
  Structure.build ?max_trials ?obs rng params ~keys

let mem t rng x = Query.mem t rng x
let params (t : t) = t.params
let structure t = t
let space (t : t) = Lc_cellprobe.Table.size t.table
let max_probes (t : t) = Params.max_probes t.params
let build_trials (t : t) = t.trials

let core (t : t) =
  Lc_dict.Dict_intf.make ~name:"low-contention" ~table:t.table ~max_probes:(max_probes t)
    (Query.query t)

let spec t =
  let (module D : Lc_dict.Dict_intf.S) = core t in
  D.spec

let instance t = Lc_dict.Instance.of_core (core t)

let verify t = Verify.check t
