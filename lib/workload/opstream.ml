module Rng = Lc_prim.Rng

type op = Insert of int | Delete of int | Query of int

type mix = { p_insert : float; p_delete : float }

let default_mix = { p_insert = 0.4; p_delete = 0.1 }

let read_write_mix ~read_fraction =
  if read_fraction < 0.0 || read_fraction > 1.0 then
    invalid_arg "Opstream.read_write_mix: read_fraction must be in [0, 1]";
  let update = 1.0 -. read_fraction in
  { p_insert = update /. 2.0; p_delete = update /. 2.0 }

let generate ?(mix = default_mix) ?initial_pool rng ~universe ~length ~working_set =
  if mix.p_insert < 0.0 || mix.p_delete < 0.0 || mix.p_insert +. mix.p_delete > 1.0 then
    invalid_arg "Opstream.generate: bad mix";
  if working_set < 1 then invalid_arg "Opstream.generate: working_set must be >= 1";
  if working_set > universe then invalid_arg "Opstream.generate: working set exceeds universe";
  (* The pool of keys the stream talks about; grows lazily up to
     working_set distinct values. [initial_pool] seeds it — the mixed
     serving workloads preload the dictionary and pass the same keys
     here so queries hit from the first operation. *)
  let pool = Array.make working_set (-1) in
  let pool_size = ref 0 in
  (match initial_pool with
  | None -> ()
  | Some seed_keys ->
    if Array.length seed_keys > working_set then
      invalid_arg "Opstream.generate: initial_pool larger than working_set";
    Array.iter
      (fun x ->
        if x < 0 || x >= universe then
          invalid_arg "Opstream.generate: initial_pool key outside universe";
        pool.(!pool_size) <- x;
        incr pool_size)
      seed_keys);
  let fresh_key () =
    if !pool_size < working_set then begin
      let x = Rng.int rng universe in
      pool.(!pool_size) <- x;
      incr pool_size;
      x
    end
    else pool.(Rng.int rng working_set)
  in
  let known_key () = if !pool_size = 0 then fresh_key () else pool.(Rng.int rng !pool_size) in
  Array.init length (fun _ ->
      let u = Rng.float rng in
      if u < mix.p_insert then Insert (fresh_key ())
      else if u < mix.p_insert +. mix.p_delete then Delete (known_key ())
      else Query (known_key ()))

let point_mass ?(mix = default_mix) ?initial_pool rng ~universe ~length ~working_set ~hot_from
    ~hot_share ~hot_key =
  if hot_from < 0 || hot_from > length then
    invalid_arg "Opstream.point_mass: hot_from must be in [0, length]";
  if hot_share < 0.0 || hot_share > 1.0 then
    invalid_arg "Opstream.point_mass: hot_share must be in [0, 1]";
  if hot_key < 0 || hot_key >= universe then
    invalid_arg "Opstream.point_mass: hot_key outside universe";
  (* Generate the base stream first, then rewrite in a second rng pass:
     the prefix before [hot_from] is exactly what [generate] would have
     produced from the same rng state. *)
  let base = generate ~mix ?initial_pool rng ~universe ~length ~working_set in
  Array.mapi
    (fun i op ->
      match op with
      | Query _ when i >= hot_from && Rng.float rng < hot_share -> Query hot_key
      | op -> op)
    base

let shifting_zipf ?(exponent = 1.0) rng ~pool ~length ~shift_every =
  let n = Array.length pool in
  if n = 0 then invalid_arg "Opstream.shifting_zipf: pool must be non-empty";
  if shift_every < 1 then invalid_arg "Opstream.shifting_zipf: shift_every must be >= 1";
  if exponent < 0.0 then invalid_arg "Opstream.shifting_zipf: exponent must be >= 0";
  (* Cumulative harmonic weights over ranks; one binary search per op. *)
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (r + 1) ** exponent));
    cum.(r) <- !total
  done;
  let sample_rank u =
    let target = u *. !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) >= target then hi := mid else lo := mid + 1
    done;
    !lo
  in
  Array.init length (fun i ->
      let shift = i / shift_every in
      let r = sample_rank (Rng.float rng) in
      Query pool.((r + shift) mod n))

let counts ops =
  let inserts = ref 0 and deletes = ref 0 and queries = ref 0 in
  Array.iter
    (function
      | Insert _ -> incr inserts
      | Delete _ -> incr deletes
      | Query _ -> incr queries)
    ops;
  (!inserts, !deletes, !queries)

let split ops ~domains =
  if domains < 1 then invalid_arg "Opstream.split: domains must be >= 1";
  let updates = ref [] in
  let queries = Array.make domains [] in
  let q = ref 0 in
  Array.iter
    (fun op ->
      match op with
      | Insert _ | Delete _ -> updates := op :: !updates
      | Query x ->
        (* Round-robin so every domain sees the same key locality. *)
        queries.(!q mod domains) <- x :: queries.(!q mod domains);
        incr q)
    ops;
  ( Array.of_list (List.rev !updates),
    Array.map (fun l -> Array.of_list (List.rev l)) queries )

let apply t rng ops =
  let inserts = ref 0 and deletes = ref 0 and hits = ref 0 in
  Array.iter
    (fun op ->
      match op with
      | Insert x ->
        Lc_dynamic.Dynamic.insert t x;
        incr inserts
      | Delete x ->
        Lc_dynamic.Dynamic.delete t x;
        incr deletes
      | Query x -> if Lc_dynamic.Dynamic.mem t rng x then incr hits)
    ops;
  (!inserts, !deletes, !hits)

let replay_oracle ops =
  let present = Hashtbl.create 256 in
  Array.map
    (fun op ->
      match op with
      | Insert x ->
        Hashtbl.replace present x ();
        false
      | Delete x ->
        Hashtbl.remove present x;
        false
      | Query x -> Hashtbl.mem present x)
    ops
