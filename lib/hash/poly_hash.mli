(** [d]-wise independent hashing via Carter-Wegman polynomials.

    [H^d_m] in the paper: a random degree-[d-1] polynomial over the prime
    field [Z_p] (with [p] larger than the key universe), reduced mod [m].
    Over [Z_p] itself the family is exactly [d]-wise independent; the
    final [mod m] reduction introduces a bias of at most [m/p] per value,
    which is negligible for the [p >> m] regimes used here and is bounded
    empirically by the test suite.

    The paper's construction in Section 2.2 relies on the composition
    fact that for [m | s], reducing a uniform member of [H^d_s] mod [m]
    yields a uniform member of [H^d_m]; {!reduce} implements exactly
    that. *)

type t

val create : Lc_prim.Rng.t -> d:int -> p:int -> m:int -> t
(** [create rng ~d ~p ~m] draws a uniform member of [H^d_m]: [d]
    independent coefficients uniform in [Z_p]. Requires [d >= 1],
    [p] a valid modulus (see {!Lc_prim.Modarith.check_modulus}) and
    [1 <= m]. *)

val of_coeffs : p:int -> m:int -> int array -> t
(** [of_coeffs ~p ~m coeffs] builds the specific polynomial with the
    given coefficients (constant term first), each already in [0, p-1].
    It copies them; the query path uses {!eval_words} instead. *)

val eval : t -> int -> int
(** [eval h x] is [h(x)] in [0, m-1]. [x] must lie in [0, p-1] (i.e. in
    the key universe). *)

val eval_words : p:int -> m:int -> int array -> pos:int -> d:int -> int -> int
(** [eval_words ~p ~m words ~pos ~d x] is
    [eval (of_coeffs ~p ~m (Array.sub words pos d)) x], computed by
    Horner's rule in place: the query path evaluates its hash functions
    from the coefficient words it has just read, allocating nothing.
    Raises [Invalid_argument] when one of the [d] words lies outside
    [0, p-1], as [of_coeffs] does. Requires [d >= 1], [m >= 1] and [p]
    a valid modulus. *)

val d : t -> int
(** Number of coefficients (the independence parameter). *)

val range : t -> int
(** The codomain size [m]. *)

val modulus : t -> int
(** The field modulus [p]. *)

val coeffs : t -> int array
(** A copy of the coefficient vector; these are the words written to the
    cell table so that the query algorithm can reconstruct the function. *)

val reduce : t -> int -> t
(** [reduce h m'] is the function [x -> h(x) mod m'] as a member of
    [H^d_{m'}]. Requires [m'] to divide [range h] so that the result is
    again uniform when [h] was (Section 2.2 of the paper). *)
