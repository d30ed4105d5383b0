(** A low-contention static {e predecessor} structure — the paper's
    replication technique applied beyond membership.

    Binary search answers predecessor queries but reads its root cell on
    every query (contention 1). Here the implicit BST (Eytzinger layout)
    is stored one {e level per row}, each row [w = 2^ceil(log2 (n+1))]
    cells wide: depth-[i] node [v] is replicated across the [w / 2^i]
    cells congruent to [v - 2^i] mod [2^i], and a query reads a uniform
    replica of the one node it needs per level. A node at depth [i] is
    visited by about a [2^-i] fraction of uniform queries and owns a
    [2^-i] fraction of its row, so {e every} cell's contention is
    [O(1/n)] — Theorem 3's guarantee, for predecessor.

    The price is space: [Theta(n log n)] cells instead of the
    dictionary's [Theta(n)]. Whether an [O(n)]-space constant-probe
    low-contention predecessor structure exists is open (predecessor has
    its own cell-probe lower bounds even before contention).

    Probes are [ceil(log2 (n+1))] — not [O(1)]; this structure levels
    load, it does not beat binary search's time. Empty Eytzinger slots
    hold the sentinel [universe], which acts as +infinity in
    comparisons. *)

type t

val build : universe:int -> keys:int array -> t
(** [build ~universe ~keys] stores the distinct keys; O(n log n) cells,
    O(n) build time. *)

val predecessor : t -> Lc_prim.Rng.t -> int -> int option
(** [predecessor t rng x] is the largest stored key [<= x], or [None]
    if [x] is below every key. Exactly one probe per tree level. *)

val instance : t -> Instance.t
(** The experiment-facing record: membership via predecessor, so the
    probe plan is the full descent, identical for [predecessor]. *)

val levels : t -> int
(** Tree depth = probes per query. *)
