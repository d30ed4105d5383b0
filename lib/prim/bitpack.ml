type t = { bits : int; wb : int; words : int array }

let create ~word_bits ~bits =
  if word_bits < 1 || word_bits > 62 then invalid_arg "Bitpack.create: word_bits outside [1, 62]";
  if bits < 0 then invalid_arg "Bitpack.create: negative length";
  let nwords = if bits = 0 then 0 else (bits + word_bits - 1) / word_bits in
  { bits; wb = word_bits; words = Array.make nwords 0 }

let length t = t.bits
let word_bits t = t.wb

let check_index t i =
  if i < 0 || i >= t.bits then invalid_arg "Bitpack: bit index out of range"

let get t i =
  check_index t i;
  let w = i / t.wb and o = i mod t.wb in
  (t.words.(w) lsr o) land 1 = 1

let set t i v =
  check_index t i;
  let w = i / t.wb and o = i mod t.wb in
  if v then t.words.(w) <- t.words.(w) lor (1 lsl o)
  else t.words.(w) <- t.words.(w) land lnot (1 lsl o)

let get_field t ~pos ~width =
  if width < 0 || width > 62 then invalid_arg "Bitpack.get_field: bad width";
  let acc = ref 0 in
  for i = width - 1 downto 0 do
    acc := (!acc lsl 1) lor (if get t (pos + i) then 1 else 0)
  done;
  !acc

let set_field t ~pos ~width v =
  if width < 0 || width > 62 then invalid_arg "Bitpack.set_field: bad width";
  if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Bitpack.set_field: value too wide";
  for i = 0 to width - 1 do
    set t (pos + i) ((v lsr i) land 1 = 1)
  done

let words t = Array.copy t.words

let of_words ~word_bits ~bits ws =
  let t = create ~word_bits ~bits in
  if Array.length ws <> Array.length t.words then invalid_arg "Bitpack.of_words: word count mismatch";
  Array.blit ws 0 t.words 0 (Array.length ws);
  (* Mask stray high bits in the last word so equality is structural. *)
  let mask_last () =
    let n = Array.length t.words in
    if n > 0 then begin
      let used = bits - (n - 1) * word_bits in
      if used < word_bits then t.words.(n - 1) <- t.words.(n - 1) land ((1 lsl used) - 1)
    end
  in
  mask_last ();
  t

let append_unary t ~pos k =
  if k < 0 then invalid_arg "Bitpack.append_unary: negative count";
  for i = 0 to k - 1 do
    set t (pos + i) true
  done;
  set t (pos + k) false;
  pos + k + 1

let read_unary t ~pos =
  let rec count i =
    if i >= t.bits then invalid_arg "Bitpack.read_unary: unterminated run"
    else if get t i then count (i + 1)
    else (i - pos, i + 1)
  in
  count pos
