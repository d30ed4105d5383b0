(** Exact per-query probe distributions.

    Every query algorithm in this repository uses randomness only to
    balance its probes (the restriction of Definition 12): given the
    table and the query, each probe step has a known distribution over
    cells. A {!t} records that distribution exactly, one {!step} per
    probe, so contention [Phi_t(j) = sum_x q_x P_t(x, j)] can be computed
    symbolically instead of estimated — this is the matrix [P_t] of
    Section 1.1.

    A step always carries total probability exactly 1; a query that makes
    fewer probes (e.g. the low-contention dictionary returning early on
    an empty bucket) simply has a shorter step list. *)

type step =
  | Point of int
      (** A deterministic probe to one cell. *)
  | Stride of { base : int; stride : int; count : int }
      (** A probe uniform over cells [base, base+stride, ...,
          base+(count-1)*stride] — the shape of every replication scheme
          in the paper (read one of [count] copies). Requires
          [count >= 1] and [stride >= 1]. *)

type t = step array
(** A query's probe plan, one entry per probe step. *)

val step_cells : step -> (int * float) Seq.t
(** [step_cells st] enumerates [(cell, probability)] pairs of one step;
    probabilities sum to 1. *)

val step_support_size : step -> int
(** Number of distinct cells the step can touch. *)

val sample_step : Lc_prim.Rng.t -> step -> int
(** Draw the probed cell of one step. *)

val probes : t -> int
(** Number of probe steps. *)

val validate : cells:int -> t -> (unit, string) result
(** [validate ~cells spec] checks that every step is well-formed and
    every reachable cell index lies in [0, cells-1]. *)

val max_step_probability : step -> float
(** The largest single-cell probability of the step (1 for [Point],
    [1/count] otherwise); the quantity bounded by [phi* / q_x] in the
    lower bound's constraint (2). *)
