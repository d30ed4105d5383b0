(** FKS two-level perfect hashing (Fredman-Komlós-Szemerédi 1984) in the
    cell-probe model.

    Top level: [h(x) = (k x mod p) mod n] into [n] buckets, resampled
    until the FKS condition [sum l_i^2 <= 4n] holds (expected O(1)
    resamples). Second level: per-bucket perfect hashing into [l_i^2]
    cells ({!Lc_hash.Perfect}).

    Contention behaviour (Section 1.3 of the paper): without replication
    the single cell holding [k] has contention 1. With the hash function
    stored redundantly ([replicate = true], [n] copies), the bottleneck
    moves to the bucket-header cells, whose contention under uniform
    positive queries is [max_i l_i / n] — up to [Theta(sqrt n)] times the
    optimal [1/s], because a bucket of size [sqrt n] is perfectly
    admissible under the FKS condition. {!build_planted} constructs a key
    set realising that worst case so experiment T1 can show the factor
    rather than just cite it. *)

type t

val build :
  ?replicate:bool -> Lc_prim.Rng.t -> universe:int -> keys:int array -> t
(** [build rng ~universe ~keys] draws top-level multipliers until the FKS
    condition holds and assembles the table. [replicate] (default [true])
    stores [n] copies of the top-level hash parameter. *)

val build_planted :
  ?replicate:bool ->
  Lc_prim.Rng.t ->
  universe:int ->
  n:int ->
  heavy:int ->
  t * int array
(** [build_planted rng ~universe ~n ~heavy] fixes a top-level multiplier
    first and then chooses [n] keys of which [heavy] (at most [sqrt (2n)]
    or so, to keep the FKS condition satisfiable) collide in one bucket —
    the adversarially-correlated key set achieving the [Theta(sqrt n)]
    contention factor. Returns the structure and its key set. *)

val instance : t -> Instance.t

val max_bucket_load : t -> int
(** Largest top-level bucket, the contention driver. *)

val top_trials : t -> int
(** Number of top-level multipliers tried before the FKS condition held. *)
