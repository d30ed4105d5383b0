(** The four-phase query algorithm of Section 2.3.

    [query] answers a membership query using only table reads and the
    problem-level parameters, through a {!Lc_dict.Dict_intf.reader}; its
    randomness is used solely to pick replicas, never to decide anything
    (Definition 12's restriction). Phases:

    + draw one uniformly random column and read the [2d] coefficient
      words of [f] and [g] from it, then one uniformly random replica
      of [z_{g(x)}]; compute [h(x)] and [h'(x) = h(x) mod m];
    + draw one uniformly random copy of group [h'(x)] and read
      [GBAS(h'(x))] and the group's [rho] histogram words from it; once
      all [rho] are read, locate bucket [h(x)]'s slot range in one
      allocation-free pass over them ({!Histogram.locate}), which also
      rejects a malformed histogram;
    + if the range is empty, answer negative;
    + otherwise read the bucket's perfect-hash word from a uniformly
      random cell of the range, and compare the key at the hashed slot.

    Every read is uniform over its own copies, as Definition 1 asks of
    each step; the reads of one round share their draw, and in the
    column-major {!Layout} they sit in adjacent cells. Under a [Plan]
    reader the same code records the exact distribution of those
    probes, which {!Lc_cellprobe.Contention.exact} turns into
    contention numbers. *)

val query : Structure.t -> Lc_dict.Dict_intf.reader -> int -> bool
(** [query t r x] answers "is [x] in [S]?" with at most [2d + rho + 4]
    reads, each through [r] — the reentrant core behind every probing
    mode of {!Lc_dict.Instance} and behind {!Dictionary.spec}. *)

val mem : Structure.t -> Lc_prim.Rng.t -> int -> bool
(** [mem t rng x] is [query] with plain reads ({!Lc_cellprobe.Table.peek});
    reentrant. *)
