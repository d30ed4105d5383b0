(** The first-class dictionary signature, and the one place a query's
    probe plan is declared.

    Every membership structure in this repository reduces to the same
    four ingredients: a cell-probe table, a space/probe budget, a query
    procedure, and the exact per-query probe plan. [S] captures them as
    a module signature whose query procedure is {e parameterised by the
    probing function}: the algorithm decides {e which} cells to visit
    (and consumes its [Rng.t] only to pick replicas), while the caller
    decides {e how} a visit is performed — counted against the table's
    mutable counters, counter-free, or counted by the caller.

    A structure writes its query once, as [query t r x] over a
    {!reader} [r], reading every cell through {!point} (one fixed cell)
    or {!replica} (one of [count] copies). {!make} runs that one query
    two ways: under [Sample] it is [S.mem], drawing each replica and
    probing it; under [Plan] it is [S.spec], recording each read as the
    {!Lc_cellprobe.Spec} step it is and reading the first copy. So the
    plan cannot drift from the query: both are the same code.

    This split is what makes one implementation serve three consumers:

    - the sequential experiment harness (instrumented probes feeding
      the {!Lc_cellprobe.Table} counters, as before);
    - the spec cross-validation, which re-instruments any instance;
    - the multicore serving engine ([lc_parallel]), which needs a
      reentrant query path it can drive from many domains at once.

    Query code must never poke the table's counters directly
    ([Table.read] from inside a query is deprecated); all probes flow
    through the reader. *)

module Rng = Lc_prim.Rng
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec

type probe = step:int -> int -> int
(** [probe ~step j] visits cell [j] as the [step]-th probe (0-indexed)
    of the running query and returns the cell's contents. The
    implementations live in {!Instance}: counting into the table
    ({!Instance.instrumented}), plain reads ({!Instance.uninstrumented}),
    or fetch-and-add on per-cell atomics ({!Instance.atomic}). *)

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

let replica r ~base ~stride ~count =
  match r with
  | Sample s -> point r (base + (stride * Rng.int s.rng count))
  | Plan p ->
    Queue.add (Spec.Stride { base; stride; count }) p.steps;
    Table.peek p.table base

module type S = sig
  val name : string
  (** Human-readable structure name for tables and reports. *)

  val table : Lc_cellprobe.Table.t
  (** The shared cells. Cell {e contents} are written only at
      construction time, so concurrent probing is safe; the table's
      built-in probe counters are not, which is exactly why [mem] takes
      the probing function as a parameter. *)

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
