(** Layout of the low-contention table (Section 2.2).

    The table is organised as [rows] rows of [s] cells, stored column by
    column: cell [(row, j)] lives at flat index [j * rows + row], so the
    [rows] words of column [j] are adjacent and one query round that
    reads several rows of one column touches one or two cache lines.
    Reading the construction from the paper:

    - rows [0 .. d-1]: coefficient [i] of [f], replicated across all [s]
      cells of its row;
    - rows [d .. 2d-1]: coefficients of [g], likewise;
    - row [2d]: the displacement vector, [T(2d, j) = z(j mod r)];
    - row [2d+1]: group base addresses, [T(2d+1, j) = GBAS(j mod m)];
    - rows [2d+2 .. 2d+1+rho]: histogram word [i] of group [j mod m];
    - row [2d+rho+2]: per-bucket perfect-hash words, replicated across
      the [l^2] cells owned by each bucket;
    - row [2d+rho+3]: the data row, keys placed by their bucket's perfect
      hash function.

    All functions are pure index arithmetic on {!Params.t}. *)

val f_row : Params.t -> int -> int
(** [f_row p i] is the row of coefficient [i] of [f] ([0 <= i < d]). *)

val g_row : Params.t -> int -> int
(** [g_row p i] is the row of coefficient [i] of [g]. *)

val z_row : Params.t -> int
val gbas_row : Params.t -> int

val hist_row : Params.t -> int -> int
(** [hist_row p i] is the row of histogram word [i] ([0 <= i < rho]). *)

val phash_row : Params.t -> int
val data_row : Params.t -> int

val cell : Params.t -> row:int -> int -> int
(** [cell p ~row j] is the flat index of [(row, j)], [j * rows + row]. *)

val column_stride : Params.t -> int
(** [column_stride p] is the flat distance between [(row, j)] and
    [(row, j + 1)], {!Params.rows}[ p]. *)

val z_replicas : Params.t -> int -> int
(** [z_replicas p res] is how many cells of the [z] row hold [z(res)]:
    the count of [j < s] with [j mod r = res]. *)

val group_of_bucket : Params.t -> int -> int
(** [group_of_bucket p bk = bk mod m] — the congruence-class grouping. *)

val index_in_group : Params.t -> int -> int
(** [index_in_group p bk = bk / m]: the bucket's position among its
    group's [s/m] buckets. *)

val bucket_of_group_index : Params.t -> group:int -> int -> int
(** Inverse of the two above: [bucket_of_group_index p ~group k =
    k * m + group]. *)
