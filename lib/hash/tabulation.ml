module Rng = Lc_prim.Rng

type t = {
  universe_bits : int;
  chunk_bits : int;
  m : int;
  tables : int array array;  (* tables.(c).(chunk value) *)
}

let char_count ~universe_bits ~chunk_bits = (universe_bits + chunk_bits - 1) / chunk_bits

let validate ~universe_bits ~chunk_bits ~m =
  if universe_bits < 1 || universe_bits > 62 then
    invalid_arg "Tabulation: universe_bits outside [1, 62]";
  if chunk_bits < 1 || chunk_bits > 16 then invalid_arg "Tabulation: chunk_bits outside [1, 16]";
  if m < 1 then invalid_arg "Tabulation: m must be >= 1"

let create rng ~universe_bits ~chunk_bits ~m =
  validate ~universe_bits ~chunk_bits ~m;
  let chars = char_count ~universe_bits ~chunk_bits in
  let size = 1 lsl chunk_bits in
  (* Entries are uniform 62-bit words; XORs of uniform words stay
     uniform, and the final mod m adds only O(m / 2^62) bias. *)
  let tables = Array.init chars (fun _ -> Array.init size (fun _ -> Rng.bits rng)) in
  { universe_bits; chunk_bits; m; tables }

let eval h x =
  if x < 0 || (h.universe_bits < 62 && x lsr h.universe_bits <> 0) then
    invalid_arg "Tabulation.eval: key out of range";
  let mask = (1 lsl h.chunk_bits) - 1 in
  let acc = ref 0 in
  Array.iteri (fun c table -> acc := !acc lxor table.((x lsr (c * h.chunk_bits)) land mask)) h.tables;
  !acc mod h.m

let chars h = Array.length h.tables

let words h = Array.concat (Array.to_list h.tables)

let of_words ~universe_bits ~chunk_bits ~m ws =
  validate ~universe_bits ~chunk_bits ~m;
  let chars = char_count ~universe_bits ~chunk_bits in
  let size = 1 lsl chunk_bits in
  if Array.length ws <> chars * size then invalid_arg "Tabulation.of_words: wrong word count";
  let tables = Array.init chars (fun c -> Array.sub ws (c * size) size) in
  { universe_bits; chunk_bits; m; tables }
