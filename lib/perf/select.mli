(** Structure and workload selection by name.

    The perf suite, the differ and the CLI all key configurations by
    [(structure, workload)] name pairs; this module is the single place
    those names are interpreted, so a committed artifact's keys stay
    meaningful across sessions. *)

val dynamic_name : string
(** ["lc-dyn"] — the epoch-published dynamic dictionary's name in
    artifact keys and CLI selection. Not a {!structure} name: it has no
    static instance; the mixed serving path builds an
    [Lc_dynamic.Epoch.t] instead. *)

val structure :
  ?obs:Lc_obs.Obs.t ->
  Lc_prim.Rng.t ->
  universe:int ->
  keys:int array ->
  string ->
  Lc_dict.Instance.t
(** Build the named structure over [keys], in {e uninstrumented}
    (reentrant) mode — what the serving engine wants. [obs] wires the
    build into the observability layer where the builder supports it
    (currently ["lc"]'s construction spans); other structures ignore
    it. Raises [Failure] on an unknown name. *)

val workload :
  Lc_prim.Rng.t -> universe:int -> keys:int array -> string -> Lc_cellprobe.Qdist.t
(** Parse a workload spec: ['pos'], ['neg'], ['point'], ['mix:P'],
    ['zipf:S']. Raises [Failure] on a malformed spec. *)

val rw_fraction : string -> float option
(** [rw_fraction "rw:F"] is [Some F] — the read fraction of a mixed
    read-write op-stream workload (the remaining mass splits evenly
    between inserts and deletes, {!Lc_workload.Opstream.read_write_mix}).
    [None] for any other spec shape (use {!workload} then); raises
    [Failure] if the spec looks like [rw:...] but [F] is not a
    probability. *)

val flash_share : string -> float option
(** [flash_share "flash:S"] is [Some S] — the post-offset hot share of
    a flash-crowd op stream ({!Lc_workload.Opstream.point_mass}), a
    query-only stream for the dynamic structure that slams one key from
    a third of the way in. [None] for any other spec shape; raises
    [Failure] if the spec looks like [flash:...] but [S] is not a
    probability. *)

val cost : string -> Lc_parallel.Engine.cost
(** Parse a probe cost model: ['free'] or ['spin:H] (per-cell spinlock
    held [H] extra relax loops). Raises [Failure] on a malformed
    spec. *)
