(** Sorted-array binary search — the paper's opening example of a
    high-contention structure.

    "With binary search ... the entry in the middle of the table is
    accessed on every query": the root cell has contention 1 regardless
    of the query distribution, a factor [s] above optimal. The probe
    sequence is deterministic, so the probe plan is a list of [Point]
    steps along the search path. *)

type t

val build : universe:int -> keys:int array -> t
(** [build ~universe ~keys] stores the distinct keys in sorted order, one
    per cell. *)

val instance : t -> Instance.t
