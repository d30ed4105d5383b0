(** Query distributions.

    The distribution [q] over queries of Section 1.1. A distribution here
    is an explicit finite probability mass function over keys, which
    keeps exact contention computation possible; samplers use a
    precomputed CDF with a guide table over it.

    The paper's "especially interesting class" — uniform over positive
    queries and uniform over negative queries — is {!pos_neg}. Uniform
    negative queries over an astronomically large universe are
    represented by a uniform distribution over an i.i.d. sample of
    non-keys: the estimate of any contention value is unbiased because
    every non-key has the same marginal under both. *)

type t

val name : t -> string

val support : t -> (int * float) array
(** The pmf as (query, probability) pairs; probabilities are positive and
    sum to 1 (within floating-point tolerance). *)

val sample : t -> Lc_prim.Rng.t -> int
(** Draw a query: one [Rng.float] [u], mapped to the first support entry
    whose cumulative mass is [>= u]. A guide table of [K] buckets ([K] a
    power of two no larger than the support) narrows the search to
    [u]'s bucket, so a draw costs O(1) expected steps on a uniform pmf.
    The result is the one a binary search over the whole CDF gives, for
    every [u]. *)

val uniform : name:string -> int array -> t
(** Uniform over a non-empty array of queries (duplicates merge mass). *)

val weighted : name:string -> (int * float) array -> t
(** Arbitrary pmf; weights must be positive, they are normalised. *)

val point : int -> t
(** All mass on one query — the harshest "arbitrary" distribution. *)

val zipf : skew:float -> int array -> t
(** Zipf over the given queries in the given order: query at rank [i]
    (1-indexed) has mass proportional to [1 / i^skew]. [skew = 0] is
    uniform. *)

val mixture : name:string -> (float * t) list -> t
(** Convex combination of distributions; outer weights must be positive
    and are normalised. *)

val pos_neg : pos:int array -> neg:int array -> p_pos:float -> t
(** The paper's uniform-positive / uniform-negative class: with
    probability [p_pos] a uniform element of [pos], otherwise a uniform
    element of [neg]. *)

val entropy : t -> float
(** Shannon entropy in bits; reported by the arbitrary-distribution
    experiments as the skew measure. *)
