(** Parameter derivation for the low-contention dictionary.

    Section 2.2 of the paper fixes [c = 2e] and asks for constants [d >
    2], [2/(d+2) < delta < 1 - 1/d], [alpha > d / (c (ln c - 1))] and
    [beta >= 2] with [m | s]. This module turns a problem size
    [(universe, n)] into the concrete integers:

    - [r = ceil (n^(1-delta))], the range of the spreading function [g];
    - [m ~ n / (alpha ln n)], the number of groups, adjusted so [m <= n];
    - [s], the table width: the smallest multiple of [m] at least
      [beta * n] (the divisibility makes [h' = h mod m] a uniform member
      of [R^d_{r,m}], the paper's Section 2.2 trick);
    - [g_per_group = s / m], buckets per group;
    - [cell_bits], the word size [b] — large enough for keys, field
      coefficients and addresses;
    - [cap_g], [cap_group]: the load caps [ceil (c n / r)] and
      [ceil (c n / m)] appearing in the property [P(S)];
    - [rho], the words per group histogram: a group's unary-coded loads
      need at most [cap_group + g_per_group] bits.

    Everything here depends only on the {e problem} — the universe size
    and [n] — never on the key set [S], so the query algorithm may use
    all of it, as Definition 2 requires. *)

type t = private {
  universe : int;
  n : int;
  p : int;  (** Field modulus, smallest prime above the universe. *)
  d : int;  (** Independence parameter, [> 2]. *)
  delta : float;  (** Exponent for [r]; in [(2/(d+2), 1 - 1/d)]. *)
  c : float;  (** The load-cap constant, [2e] by default. *)
  alpha : float;  (** Group-count constant. *)
  beta : int;  (** Space factor, [>= 2]. *)
  r : int;  (** Range of [g]. *)
  m : int;  (** Number of groups; divides [s]. *)
  s : int;  (** Table width (cells per row), [Theta(n)]. *)
  g_per_group : int;  (** [s / m]. *)
  cell_bits : int;  (** Word size [b]. *)
  cap_g : int;  (** [P(S)] cap on loads of [g]. *)
  cap_group : int;  (** [P(S)] cap on group loads of [h']. *)
  rho : int;  (** Histogram words per group. *)
}

val make :
  ?d:int ->
  ?delta:float ->
  ?c:float ->
  ?alpha:float ->
  ?beta:int ->
  universe:int ->
  n:int ->
  unit ->
  t
(** [make ~universe ~n ()] derives all parameters with the paper's
    defaults ([d = 3], [delta = 0.5], [c = 2e], [alpha = 2], [beta = 2]).
    Raises [Invalid_argument] when a constraint is violated ([d <= 2],
    [delta] outside its interval, [beta < 2], [n < 1], universe too small
    to hold [n] distinct keys, a modulus overflow, or a group so large
    that [cap_group * rho * cell_bits] exceeds [2^31], the bound under
    which {!Histogram.locate} packs a slot offset and length in one
    int). *)

val rows : t -> int
(** Number of rows in the table layout, [2 d + rho + 4]: coefficient rows
    for [f] and [g], the [z] row, the group-base-address row, [rho]
    histogram rows, the perfect-hash row and the data row. *)

val total_cells : t -> int
(** [rows t * s]. *)

val max_probes : t -> int
(** Worst-case probes per query, [2 d + rho + 4] — one per row. *)

val pp : Format.formatter -> t -> unit
(** Render the derived parameters for logs and experiment headers. *)
