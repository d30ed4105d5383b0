module Bitpack = Lc_prim.Bitpack

let bits_budget (p : Params.t) = p.rho * p.cell_bits

let encode (p : Params.t) ~loads =
  if Array.length loads <> p.g_per_group then
    invalid_arg "Histogram.encode: expected one load per bucket in the group";
  let total = Array.fold_left ( + ) 0 loads in
  let needed = total + p.g_per_group in
  if needed > bits_budget p then
    invalid_arg
      (Printf.sprintf "Histogram.encode: %d bits exceed the %d-bit budget (P(S) violated?)"
         needed (bits_budget p));
  let bp = Bitpack.create ~word_bits:p.cell_bits ~bits:(bits_budget p) in
  let pos = ref 0 in
  Array.iter (fun l -> pos := Bitpack.append_unary bp ~pos:!pos l) loads;
  Bitpack.words bp

let decode (p : Params.t) words =
  if Array.length words <> p.rho then
    invalid_arg "Histogram.decode: expected rho words";
  let bp = Bitpack.of_words ~word_bits:p.cell_bits ~bits:(bits_budget p) words in
  let loads = Array.make p.g_per_group 0 in
  let pos = ref 0 in
  for k = 0 to p.g_per_group - 1 do
    let l, next = Bitpack.read_unary bp ~pos:!pos in
    if l > p.cap_group then invalid_arg "Histogram.decode: load exceeds the group cap";
    loads.(k) <- l;
    pos := next
  done;
  loads

(* One entry per byte of histogram, read least significant bit first:
   bits 0-3 the zeros, 4-7 the ones before the first zero, 8-11 the ones
   after the last zero (both 8 for a byte of ones), 12-17 the sum of the
   squared runs strictly between zeros, 18-20 the longest such run. *)
let byte_table =
  Array.init 256 (fun byte ->
      let zeros = ref 0 and lead = ref 8 and run = ref 0 and sq = ref 0 and longest = ref 0 in
      for i = 0 to 7 do
        if (byte lsr i) land 1 = 1 then incr run
        else begin
          if !zeros = 0 then lead := !run
          else begin
            sq := !sq + (!run * !run);
            if !run > !longest then longest := !run
          end;
          incr zeros;
          run := 0
        end
      done;
      !zeros lor (!lead lsl 4) lor (!run lsl 8) lor (!sq lsl 12) lor (!longest lsl 18))

let slot_shift = 31
let slot_offset slot = slot lsr slot_shift
let slot_length slot = slot land ((1 lsl slot_shift) - 1)

let over_cap () = invalid_arg "Histogram.locate: load exceeds the group cap"

let walk (p : Params.t) words ~k =
  if k < 0 || k >= p.g_per_group then invalid_arg "Histogram.locate: bucket index out of range";
  let g = p.g_per_group and cap = p.cap_group and cb = p.cell_bits in
  let mask = (1 lsl cb) - 1 in
  (* [runs] runs are closed; [run] ones are open. [off] sums the squared
     loads of buckets before [k]; [len] is bucket [k]'s squared load. *)
  let runs = ref 0 and run = ref 0 and off = ref 0 and len = ref 0 in
  let w = ref 0 in
  while !runs < g && !w < p.rho do
    let v = words.(!w) land mask in
    let pos = ref 0 in
    while !runs < g && !pos < cb do
      let width = if cb - !pos < 8 then cb - !pos else 8 in
      (* A short last byte is padded with ones, which only lengthen the
         ones after its last zero. *)
      let byte = ((v lsr !pos) lor (0xFF lsl width)) land 0xFF in
      let e = byte_table.(byte) in
      let zeros = e land 0xF and c = !runs in
      if zeros = 0 then run := !run + width
      else if c + zeros <= g && (c + zeros <= k || c >= k) then begin
        (* The runs this byte closes are all among the first [g], and
           either all lie before bucket [k] or none does. *)
        let first = !run + ((e lsr 4) land 0xF) in
        if first > cap || e lsr 18 > cap then over_cap ();
        if c < k then off := !off + (first * first) + ((e lsr 12) land 0x3F)
        else if c = k then len := first * first;
        runs := c + zeros;
        run := ((e lsr 8) land 0xF) - (8 - width)
      end
      else begin
        (* Bucket [k] or the [g]-th run closes inside this byte. *)
        let i = ref 0 in
        while !runs < g && !i < width do
          if (byte lsr !i) land 1 = 1 then incr run
          else begin
            let l = !run and c = !runs in
            if l > cap then over_cap ();
            if c < k then off := !off + (l * l) else if c = k then len := l * l;
            runs := c + 1;
            run := 0
          end;
          incr i
        done
      end;
      pos := !pos + 8
    done;
    incr w
  done;
  if !runs < g then invalid_arg "Histogram.locate: unterminated run";
  (!off lsl slot_shift) lor !len

let locate (p : Params.t) words ~k =
  if Array.length words <> p.rho then invalid_arg "Histogram.locate: expected rho words";
  walk p words ~k
