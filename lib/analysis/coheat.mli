(** Cache-line co-heat diagnostic for per-cell probe tallies.

    Buckets a per-cell count array into cache-line-sized groups
    ([line_cells] consecutive cells, default 8 — one 64-byte line of
    one-word cells, as a table's [int array] packs them) and reports
    how much probe traffic shares a line with other hot cells. High
    co-heat means cells that never logically conflict are still served
    from the same cache line: harmless for reads, false sharing for
    anything that writes per cell. *)

type t = {
  line_cells : int;  (** cells per cache-line bucket *)
  lines : int;  (** number of buckets *)
  total : int;  (** total probes across all cells *)
  ratio : float;
      (** neighbour co-heat in [0, 1): 0 = every line has at most one
          hot cell; (line_cells-1)/line_cells = uniform traffic *)
  heats : int array;  (** per-line probe totals *)
  hottest_line : int;
  hottest_line_heat : int;
  hottest_line_share : float;
}

val of_counts : ?line_cells:int -> int array -> t
(** [of_counts counts] aggregates a per-cell tally array (as returned by
    the engine's [counts] result field) into line buckets. Raises
    [Invalid_argument] on negative counts or [line_cells < 1]. *)

val uniform_bound : t -> float
(** The ratio uniform traffic would score: (line_cells-1)/line_cells. *)
