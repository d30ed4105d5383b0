(** Cuckoo hashing (Pagh-Rodler 2004) in the cell-probe model.

    Two tables of [ceil (1.3 n)] cells and two polynomial hash functions;
    every key lives in [T_0[h_0(x)]] or [T_1[h_1(x)]]. Queries are two
    deterministic data probes plus reads of the hash-function coefficient
    words, which are replicated when [replicate] is set (the Section 1.3
    variant). The contention bottleneck under uniform positive queries is
    the most popular data cell: [n] keys make [2n] deterministic probes
    into [~2.6 n] cells, so the hottest cell sees
    [Theta(ln n / ln ln n)] of them — the factor the paper quotes. *)

type t

val build :
  ?replicate:bool ->
  ?d:int ->
  Lc_prim.Rng.t ->
  universe:int ->
  keys:int array ->
  t
(** [build rng ~universe ~keys] inserts all keys, redrawing both hash
    functions (a "rehash") whenever an eviction walk exceeds its bound.
    [d] (default 3) is the polynomial degree of each hash function. *)

val instance : t -> Instance.t

val rehashes : t -> int
(** Number of full rehashes performed during construction. *)
