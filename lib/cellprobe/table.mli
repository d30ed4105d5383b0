(** Cell-probe tables.

    The paper's table [T_{S,q} : [s] -> {0,1}^b] of [s] cells of [b] bits
    each, and nothing more. Cells hold OCaml integers constrained to
    [b <= 62] bits. A table keeps no probe counts: contention
    (Definition 1) is a property of the probes queries make, so code
    that wants it counts them in the probing function it passes
    ({!Contention.monte_carlo}, the [lc_parallel] engine's per-domain
    tallies).

    Writes are construction-time operations: the paper measures the
    contention of {e queries} against a static table. *)

type t

val bits_for : int -> int
(** [bits_for v] is the smallest cell width (in bits, at least 1) that
    stores the non-negative value [v]. *)

val create : ?init:int -> cells:int -> bits:int -> unit -> t
(** [create ~cells ~bits ()] is a table of [cells] cells of [bits] bits,
    each initialised to [init] (default 0). Requires [1 <= bits <= 62]
    and [cells >= 0]; every stored value must fit in [bits] bits, except
    that the sentinel [-1] ("empty cell") is always allowed. *)

val size : t -> int
(** Number of cells, the paper's [s]. *)

val bits : t -> int
(** Cell width in bits, the paper's [b]. *)

val peek : t -> int -> int
(** [peek t j] is the contents of cell [j]; every probe reads through
    it. Reentrant: cells change only at construction. *)

val write : t -> int -> int -> unit
(** [write t j v] stores [v] in cell [j] (construction time only).
    Raises [Invalid_argument] if [v] does not fit in [bits t] bits. *)

val copy_cells : t -> int array
(** Snapshot of all cell contents. *)

val corrupt : t -> Lc_prim.Rng.t -> unit
(** [corrupt t rng] flips one uniformly random bit of one uniformly
    random non-sentinel cell; failure injection for verifier tests. *)
