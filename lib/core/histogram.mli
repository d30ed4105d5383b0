(** Group histograms: bucket loads in unary, packed into [rho] words.

    Section 2.2: "a group-histogram is a binary string where the load of
    each bucket in the group is represented consecutively in unary code
    separated by zeros". A group of [g_per_group] buckets with loads
    summing to at most [cap_group] fits in [cap_group + g_per_group]
    bits, hence in [rho] cells of [cell_bits] bits. Bit [i] of the
    string is bit [i mod cell_bits] of word [i / cell_bits]; bits above
    [cell_bits] in a word are not part of it.

    The query algorithm reads the [rho] words (one probe each, from a
    random replica) and needs one prefix sum of {e squared} loads to
    locate its bucket's slot range inside the group. The paper decodes
    the loads for free, since only probes cost in the cell-probe model;
    {!locate} computes the prefix sum in one allocation-free pass over
    the words a byte at a time, and {!decode} stays the reference it
    must agree with. *)

val encode : Params.t -> loads:int array -> int array
(** [encode p ~loads] packs the loads of one group's buckets (length
    [g_per_group], in group order [k = 0, 1, ...]) into exactly [rho]
    words. Raises [Invalid_argument] if the loads need more bits than the
    histogram budget — the builder only calls this after [P(S)] holds, so
    that would be a logic error. *)

val decode : Params.t -> int array -> int array
(** [decode p words] recovers the [g_per_group] loads. Raises
    [Invalid_argument] on a malformed (e.g. corrupted) histogram: when
    [words] is not [rho] words long, when a load exceeds [cap_group], or
    when fewer than [g_per_group] runs end within [rho * cell_bits]
    bits. *)

val locate : Params.t -> int array -> k:int -> int
(** [locate p words ~k] is the paper's [(i_h(x), i'_h(x))] pair relative
    to the group base address, packed in one int: the offset of bucket
    [k]'s slot block within its group, [sum_{k' < k} loads(k')^2], read
    back by {!slot_offset}, and its length [loads(k)^2] (0 for an empty
    bucket), read back by {!slot_length}.

    It rejects with [Invalid_argument] exactly the [words] that {!decode}
    rejects, so it walks past bucket [k] to the [g_per_group]-th run and
    checks every load on the way against [cap_group]. It also rejects [k]
    outside [\[0, g_per_group)]. It allocates nothing. *)

val slot_offset : int -> int
(** [slot_offset slot] is the offset in a {!locate} result: its bits
    from 31 up. {!Params.make} bounds every offset and length below
    [2^31]. *)

val slot_length : int -> int
(** [slot_length slot] is the length in a {!locate} result: its low 31
    bits. *)
