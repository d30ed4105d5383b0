(** Packing bit strings into [b]-bit memory words.

    The paper's group histograms are unary-coded bit strings stored in
    [rho] consecutive cells of [b] bits each (Section 2.2). This module is
    the generic substrate: a fixed-length bit string backed by an array of
    words of a configurable width, with bit- and field-level access, plus
    conversion to and from the word array actually written into the cell
    table. *)

type t
(** A mutable bit string of fixed length. *)

val create : word_bits:int -> bits:int -> t
(** [create ~word_bits ~bits] is an all-zero bit string of [bits] bits
    stored in words of [word_bits] bits ([1 <= word_bits <= 62]). *)

val length : t -> int
(** Number of bits. *)

val word_bits : t -> int
(** Width of the backing words. *)

val get : t -> int -> bool
(** [get t i] is bit [i] (0-indexed from the start of the string). *)

val set : t -> int -> bool -> unit
(** [set t i v] writes bit [i]. *)

val get_field : t -> pos:int -> width:int -> int
(** [get_field t ~pos ~width] reads [width <= 62] bits starting at bit
    [pos] as an unsigned little-endian integer (bit [pos] is the least
    significant). *)

val set_field : t -> pos:int -> width:int -> int -> unit
(** [set_field t ~pos ~width v] writes the low [width] bits of [v]
    starting at bit [pos]. Requires [0 <= v < 2^width]. *)

val words : t -> int array
(** [words t] is a copy of the backing words, each in [0, 2^word_bits). *)

val of_words : word_bits:int -> bits:int -> int array -> t
(** [of_words ~word_bits ~bits ws] reconstructs a bit string from words
    previously obtained by {!words}. Raises [Invalid_argument] if the
    word count does not match. *)

val append_unary : t -> pos:int -> int -> int
(** [append_unary t ~pos k] writes [k] one-bits followed by a zero bit at
    position [pos], returning the position just past the written run.
    This is the paper's unary load encoding: the load of each bucket "in
    unary code separated by zeros". *)

val read_unary : t -> pos:int -> int * int
(** [read_unary t ~pos] reads a unary run starting at [pos]: counts the
    one-bits up to the first zero bit and returns [(count, next_pos)]
    where [next_pos] is just past the terminating zero.
    Raises [Invalid_argument] if the string ends inside a run. *)
