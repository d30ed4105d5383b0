(** Simple tabulation hashing (Zobrist; analysed by Patrascu-Thorup).

    An alternative realisation of the universal families the paper's
    structures consume: split a key into [chars] chunks of [chunk_bits]
    bits, look each chunk up in its own random table, and XOR the
    results, finally reducing mod [m]. Only 3-wise independent, but with
    Chernoff-style concentration for many balls-in-bins quantities —
    which is exactly what the DM construction's load caps need, so it
    makes a practically faster drop-in for {!Poly_hash} in the baseline
    dictionaries (the benchmark suite compares evaluation costs).

    Exposed with the same shape as {!Poly_hash} where meaningful; the
    table of random words is the analogue of the coefficient vector
    (and is what replication would copy into cells — one word per
    chunk-entry, so it is a {e bigger} object than a polynomial's [d]
    words: the space/evaluation-time trade-off is the point). *)

type t

val create :
  Lc_prim.Rng.t -> universe_bits:int -> chunk_bits:int -> m:int -> t
(** [create rng ~universe_bits ~chunk_bits ~m] draws the random tables
    for keys of [universe_bits] bits, chunked into [chunk_bits]-bit
    characters ([1 <= chunk_bits <= 16]); values land in [0, m-1]. *)

val eval : t -> int -> int
(** [eval h x]. [x] must fit in [universe_bits] bits. *)

val chars : t -> int
(** Number of chunk tables. *)

val words : t -> int array
(** The flattened tables (row-major by character), for cell storage. *)

val of_words :
  universe_bits:int -> chunk_bits:int -> m:int -> int array -> t
(** Rebuild from {!words}. *)
