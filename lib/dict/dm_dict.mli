(** A two-level dictionary over the Dietzfelbinger-Meyer auf der Heide
    hash family — the "DM" comparison point of Section 1.3.

    Identical skeleton to {!Fks} but the top level hashes with a member
    of [R^d_{r,n}] (Definition 4) accepted only when its maximum bucket
    load is [O(ln n / ln ln n)] — the load-levelling guarantee that
    family adds over plain universal hashing. With the hash-function
    words (the [2d] coefficients and the displacement vector [z])
    replicated, the bucket-header cells dominate contention at
    [Theta(ln n / ln ln n)] times optimal, the factor the paper quotes
    for DM. *)

type t

val build :
  ?replicate:bool ->
  ?d:int ->
  Lc_prim.Rng.t ->
  universe:int ->
  keys:int array ->
  t
(** [build rng ~universe ~keys] resamples the top-level DM function until
    both the max-load cap and the FKS square-sum condition hold. [d]
    defaults to 3. *)

val instance : t -> Instance.t

val max_bucket_load : t -> int

val top_trials : t -> int
