(** The first-class dictionary signature, and the one place a query's
    probe plan is declared.

    Every membership structure in this repository reduces to the same
    four ingredients: a cell-probe table, a space/probe budget, a query
    procedure, and the exact per-query probe plan. [S] captures them as
    a module signature whose query procedure is {e parameterised by the
    probing function}: the algorithm decides {e which} cells to visit
    (and consumes its [Rng.t] only to pick replicas), while the caller
    decides {e how} a visit is performed — a plain read, or a read the
    caller counts. The table itself keeps no counts.

    A structure writes its query once, as [query t r x] over a
    {!reader} [r], reading every cell through {!point} (one fixed cell)
    or {!replica} (one of [count] copies). Reads that share one copy
    index, such as the words of one column, take it from {!draw} and
    read through {!replica_at}: each read stays uniform over its own
    copies. {!make} runs that one query two ways: under [Sample] it is
    [S.mem], drawing each replica and probing it; under [Plan] it is
    [S.spec], recording each read as the {!Lc_cellprobe.Spec} step it
    is and reading the first copy. So the plan cannot drift from the
    query: both are the same code.

    This split is what makes one implementation serve three consumers:

    - the sequential experiment harness (plain reads);
    - the code that counts probes: Monte-Carlo contention and the spec
      cross-validation, each with its own counting probe;
    - the multicore serving engine ([lc_parallel]), which needs a
      reentrant query path it can drive from many domains at once.

    Query code reads cells only through the reader. *)

module Rng = Lc_prim.Rng
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec

type probe = step:int -> int -> int
(** [probe ~step j] visits cell [j] as the [step]-th probe (0-indexed)
    of the running query and returns the cell's contents. {!Instance}
    has plain reads ({!Instance.uninstrumented}) and fetch-and-add on
    per-cell atomics ({!Instance.atomic}); code that counts probes
    passes its own. *)

type reader =
  | Sample of { probe : probe; rng : Rng.t; mutable step : int }
      (** Answer the query: draw each replica from [rng] and visit it
          through [probe]; [step] counts the probes made so far. *)
  | Plan of { table : Table.t; steps : Spec.step Queue.t }
      (** Record the query's probe plan into [steps], reading the first
          copy of every replicated word from [table]. *)

let point r j =
  match r with
  | Sample s ->
    let v = s.probe ~step:s.step j in
    s.step <- s.step + 1;
    v
  | Plan p ->
    Queue.add (Spec.Point j) p.steps;
    Table.peek p.table j

(* A copy index in [0, count): drawn under [Sample]; under [Plan] the
   first copy, which is the one [replica_at] reads there. *)
let draw r count = match r with Sample s -> Rng.int s.rng count | Plan _ -> 0

let replica_at r ~base ~stride ~count c =
  match r with
  | Sample _ -> point r (base + (stride * c))
  | Plan p ->
    Queue.add (Spec.Stride { base; stride; count }) p.steps;
    Table.peek p.table base

let replica r ~base ~stride ~count = replica_at r ~base ~stride ~count (draw r count)

module type S = sig
  val name : string
  (** Human-readable structure name for tables and reports. *)

  val table : Lc_cellprobe.Table.t
  (** The shared cells. Cell contents are written only at construction
      time, so concurrent probing is safe; whoever wants probes counted
      counts them in the probing function [mem] takes. *)

  val space : int
  (** Number of cells, the paper's [s]. *)

  val max_probes : int
  (** Worst-case probes per query, the paper's [t]. *)

  val mem : probe:probe -> Lc_prim.Rng.t -> int -> bool
  (** [mem ~probe rng x] answers the membership query, visiting every
      cell through [probe]; [rng] drives only replica balancing, never
      the answer. Reentrant whenever [probe] is. *)

  val spec : int -> Lc_cellprobe.Spec.t
  (** [spec x] is the exact probe plan the query algorithm uses for [x]
      on this table. *)
end

let make ~name ~table ~max_probes query : (module S) =
  (module struct
    let name = name
    let table = table
    let space = Table.size table
    let max_probes = max_probes
    let mem ~probe rng x = query (Sample { probe; rng; step = 0 }) x

    let spec x =
      let steps = Queue.create () in
      ignore (query (Plan { table; steps }) x : bool);
      Array.of_seq (Queue.to_seq steps)
  end)
