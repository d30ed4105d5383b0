(** Deterministic pseudo-random number generation.

    A SplitMix64 generator: tiny state, excellent statistical quality for
    simulation purposes, and {e splittable}, which the experiment harness
    uses to derive independent streams for independent experiment arms
    without sharing mutable state.

    All randomness in this repository flows through this module so that
    every experiment and every test is reproducible from a single seed.

    Every query draws its replicas here, so a draw must not allocate:
    the state is 8 bytes read and written unboxed, and {!bits}, {!int}
    and {!int_in_range} allocate nothing. {!next_int64} and {!float}
    return an [int64] and a [float], which their caller may box. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 state. *)

val create : int -> t
(** [create seed] returns a fresh generator determined by [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val next_int64 : t -> int64
(** [next_int64 t] is the next raw 64-bit output. *)

val bits : t -> int
(** [bits t] is a uniform non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1]. Requires [bound > 0].
    A power-of-two [bound] masks one draw of {!bits}; any other bound
    rejects a draw that lies at or above the largest multiple of
    [bound] below [2^62], so the result is exactly uniform. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform on the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val float : t -> float
(** [float t] is uniform on [0, 1). *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] uniformly in place (Fisher-Yates). *)

val choose : t -> 'a array -> 'a
(** [choose t a] is a uniform element of [a]. Requires [a] non-empty. *)

val sample_distinct : t -> bound:int -> count:int -> int array
(** [sample_distinct t ~bound ~count] draws [count] distinct integers
    uniformly from [0, bound-1], in no particular order.
    Requires [count <= bound]. Runs in expected O(count) time when
    [count] is at most half of [bound], and switches to a partial
    Fisher-Yates over the dense range otherwise. *)
