(* Cache-line co-heat: how much of the probe traffic lands on cells that
   share a cache line with *other* hot cells. A table's cells are
   one-word [int array] slots, so [line_cells] consecutive cells share a
   64-byte line (8 words by default). Reads of such a line from many
   domains are shared; per-cell writes from two domains to distinct
   cells of one line would ping-pong it between cores even though the
   cells never logically conflict — classic false sharing, invisible in
   the per-cell histogram.

   The metric: for a cell c with tally k_c on a line with total heat
   H(c), the probability that a uniformly chosen *other* probe of the
   same line precedes/follows one of c's is (H(c) - k_c)/H(c); weighting
   by k_c and normalising by total probes gives

       ratio = sum_c k_c * (H(c) - k_c) / H(c)  /  total

   which is 0 when every line has at most one hot cell (no co-heat) and
   approaches (L-1)/L for perfectly uniform traffic over lines of L
   cells. The ratio is a *diagnostic*, not a proof: high co-heat plus
   degrading throughput-per-domain is the false-sharing signature. *)

type t = {
  line_cells : int;  (* cells per cache line bucket *)
  lines : int;  (* number of buckets *)
  total : int;  (* total probes across all cells *)
  ratio : float;  (* neighbour co-heat ratio in [0, 1) *)
  heats : int array;  (* per-line probe totals, length [lines] *)
  hottest_line : int;  (* index of the hottest line (0 if empty) *)
  hottest_line_heat : int;
  hottest_line_share : float;  (* hottest line heat / total *)
}

let default_line_cells = 8

let of_counts ?(line_cells = default_line_cells) counts =
  if line_cells < 1 then invalid_arg "Coheat.of_counts: line_cells must be >= 1";
  let cells = Array.length counts in
  let lines = (cells + line_cells - 1) / line_cells in
  let heats = Array.make (max lines 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i k ->
      if k < 0 then invalid_arg "Coheat.of_counts: negative count";
      heats.(i / line_cells) <- heats.(i / line_cells) + k;
      total := !total + k)
    counts;
  let co = ref 0.0 in
  Array.iteri
    (fun i k ->
      let h = heats.(i / line_cells) in
      if h > 0 && k > 0 then
        co := !co +. (float_of_int k *. float_of_int (h - k) /. float_of_int h))
    counts;
  let ratio = if !total > 0 then !co /. float_of_int !total else 0.0 in
  let hottest_line = ref 0 in
  Array.iteri (fun i h -> if h > heats.(!hottest_line) then hottest_line := i) heats;
  let hottest_line_heat = heats.(!hottest_line) in
  let hottest_line_share =
    if !total > 0 then float_of_int hottest_line_heat /. float_of_int !total else 0.0
  in
  {
    line_cells;
    lines;
    total = !total;
    ratio;
    heats;
    hottest_line = !hottest_line;
    hottest_line_heat;
    hottest_line_share;
  }

(* Upper bound of the ratio for this line width: uniform traffic over a
   full line scores (L-1)/L. Useful for rendering "x of max". *)
let uniform_bound t = float_of_int (t.line_cells - 1) /. float_of_int t.line_cells
