(** The four-phase query algorithm of Section 2.3.

    [mem] answers a membership query using only table probes and the
    problem-level parameters; its randomness is used solely to pick
    replicas, never to decide anything (Definition 12's restriction).
    Phases:

    + read the [2d] coefficient words of [f] and [g], each from a
      uniformly random cell of its row, and one replica of [z_{g(x)}];
      compute [h(x)] and [h'(x) = h(x) mod m];
    + read [GBAS(h'(x))] and the [rho] histogram words of group [h'(x)],
      each from a uniformly random replica; once all [rho] are read,
      locate bucket [h(x)]'s slot range in one allocation-free pass over
      them ({!Histogram.locate}), which also rejects a malformed
      histogram;
    + if the range is empty, answer negative;
    + otherwise read the bucket's perfect-hash word from a uniformly
      random cell of the range, and compare the key at the hashed slot.

    [spec] returns the exact distribution of those probes (using the
    builder's retained metadata), which {!Lc_cellprobe.Contention.exact}
    turns into contention numbers. *)

val mem_probe : Structure.t -> probe:Lc_dict.Dict_intf.probe -> Lc_prim.Rng.t -> int -> bool
(** [mem_probe t ~probe rng x] answers "is [x] in [S]?" with at most
    [2d + rho + 4] probes, each performed through [probe] — the
    reentrant core behind every probing mode of
    {!Lc_dict.Instance}. *)

val mem : Structure.t -> Lc_prim.Rng.t -> int -> bool
(** [mem t rng x] is [mem_probe] with instrumented probes (counted by
    the table's mutable counters; sequential use only). *)

val spec : Structure.t -> int -> Lc_cellprobe.Spec.t
(** [spec t x] is the exact probe plan for query [x]. *)

val max_probes : Structure.t -> int
