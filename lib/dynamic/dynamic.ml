module Rng = Lc_prim.Rng
module Dictionary = Lc_core.Dictionary
module Qdist = Lc_cellprobe.Qdist
module Contention = Lc_cellprobe.Contention
module Spec = Lc_cellprobe.Spec

type level = {
  index : int;
  keys : int array;  (* exactly 2^index keys *)
  replicas : Dictionary.t array;  (* >= 1 independently built copies *)
  cores : (module Lc_dict.Dict_intf.S) array;  (* [Dictionary.core] of each replica *)
}

(* One Bentley–Saxe merge, as seen by the update-path observatory: the
   level (re)built, how many keys went in, across how many replicas,
   the exact cell count written (sum of replica spaces) and the build's
   wall duration. Reported to the build hook and folded into the
   cumulative rebuild counters. *)
type build_info = {
  bi_index : int;
  bi_keys : int;
  bi_replicas : int;
  bi_cells : int;
  bi_ns : int;
}

type t = {
  universe : int;
  mutable boost : int;  (* effective small_level_boost; builder-owned *)
  rng : Rng.t;  (* private stream for rebuilds *)
  mutable levels : level option array;
  deleted : (int, unit) Hashtbl.t;
  stored_set : (int, unit) Hashtbl.t;  (* O(1) duplicate checks for updates *)
  mutable live : int;  (* stored keys minus tombstones *)
  mutable stored : int;  (* keys across levels, tombstones included *)
  mutable keys_rebuilt : int;
  mutable purges : int;
  (* Update-path accounting, builder-owned like everything above: every
     level build adds its exact written-cell count (the write half of
     write amplification), bumps the rebuild counter and accumulates the
     build's wall time. *)
  mutable cells_written : int;
  mutable rebuilds : int;
  mutable rebuild_ns : int;
  mutable build_hook : (build_info -> unit) option;
}

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let create ?(small_level_boost = 1) rng ~universe () =
  if not (is_power_of_two small_level_boost) then
    invalid_arg "Dynamic.create: small_level_boost must be a power of two";
  if universe < 2 then invalid_arg "Dynamic.create: universe too small";
  {
    universe;
    boost = small_level_boost;
    rng = Rng.split rng;
    levels = Array.make 8 None;
    deleted = Hashtbl.create 64;
    stored_set = Hashtbl.create 64;
    live = 0;
    stored = 0;
    keys_rebuilt = 0;
    purges = 0;
    cells_written = 0;
    rebuilds = 0;
    rebuild_ns = 0;
    build_hook = None;
  }

let replica_count t index = max 1 (t.boost lsr index)

let build_level t ~index keys =
  let t0 = Monotonic_clock.now () in
  let replicas =
    Array.init (replica_count t index) (fun _ ->
        Dictionary.build t.rng ~universe:t.universe ~keys)
  in
  let ns = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  let cells = Array.fold_left (fun a d -> a + Dictionary.space d) 0 replicas in
  t.keys_rebuilt <- t.keys_rebuilt + (Array.length keys * Array.length replicas);
  t.cells_written <- t.cells_written + cells;
  t.rebuilds <- t.rebuilds + 1;
  t.rebuild_ns <- t.rebuild_ns + ns;
  (match t.build_hook with
  | None -> ()
  | Some f ->
    f
      {
        bi_index = index;
        bi_keys = Array.length keys;
        bi_replicas = Array.length replicas;
        bi_cells = cells;
        bi_ns = ns;
      });
  { index; keys = Array.copy keys; replicas; cores = Array.map Dictionary.core replicas }

let ensure_capacity t index =
  if index >= Array.length t.levels then begin
    let grown = Array.make (2 * (index + 1)) None in
    Array.blit t.levels 0 grown 0 (Array.length t.levels);
    t.levels <- grown
  end

let mem t rng x =
  if x < 0 || x >= t.universe then invalid_arg "Dynamic.mem: key outside universe";
  if Hashtbl.mem t.deleted x then false
  else begin
    (* Largest level first: it holds at least half the keys. *)
    let hit = ref false in
    for i = Array.length t.levels - 1 downto 0 do
      if not !hit then
        match t.levels.(i) with
        | None -> ()
        | Some l ->
          let (module D : Lc_dict.Dict_intf.S) = l.cores.(Rng.int rng (Array.length l.cores)) in
          let probe ~step:_ j = Lc_cellprobe.Table.peek D.table j in
          if D.mem ~probe rng x then hit := true
    done;
    !hit
  end

(* Distribute [keys] into fresh levels according to the binary
   representation of their count (the canonical logarithmic-method
   shape), replacing all current levels. *)
let rebuild_all t keys =
  Array.iteri (fun i _ -> t.levels.(i) <- None) t.levels;
  Hashtbl.reset t.stored_set;
  Array.iter (fun x -> Hashtbl.replace t.stored_set x ()) keys;
  let count = Array.length keys in
  let pos = ref 0 in
  let bit = ref 0 in
  while count lsr !bit > 0 do
    if (count lsr !bit) land 1 = 1 then begin
      ensure_capacity t !bit;
      let chunk = Array.sub keys !pos (1 lsl !bit) in
      t.levels.(!bit) <- Some (build_level t ~index:!bit chunk);
      pos := !pos + (1 lsl !bit)
    end;
    incr bit
  done;
  t.stored <- count

let purge t =
  t.purges <- t.purges + 1;
  let all = ref [] in
  Array.iter
    (fun lvl ->
      match lvl with
      | Some l ->
        Array.iter (fun x -> if not (Hashtbl.mem t.deleted x) then all := x :: !all) l.keys
      | None -> ())
    t.levels;
  Hashtbl.reset t.deleted;
  rebuild_all t (Array.of_list !all);
  t.live <- t.stored

let insert t x =
  if x < 0 || x >= t.universe then invalid_arg "Dynamic.insert: key outside universe";
  if Hashtbl.mem t.deleted x then begin
    (* The key is still stored in some level; un-delete it. *)
    Hashtbl.remove t.deleted x;
    t.live <- t.live + 1
  end
  else if Hashtbl.mem t.stored_set x then () (* already present *)
  else begin
    (* Cascade into the first empty level. *)
    ensure_capacity t 0;
    let j =
      let limit = Array.length t.levels in
      let rec scan j =
        if j >= limit then j
        else match t.levels.(j) with None -> j | Some _ -> scan (j + 1)
      in
      scan 0
    in
    ensure_capacity t j;
    let moved = ref [ x ] in
    for i = 0 to j - 1 do
      match t.levels.(i) with
      | Some l ->
        Array.iter (fun k -> moved := k :: !moved) l.keys;
        t.levels.(i) <- None
      | None -> ()
    done;
    let chunk = Array.of_list !moved in
    assert (Array.length chunk = 1 lsl j);
    t.levels.(j) <- Some (build_level t ~index:j chunk);
    Hashtbl.replace t.stored_set x ();
    t.live <- t.live + 1;
    t.stored <- t.stored + 1
  end

let delete t x =
  if x < 0 || x >= t.universe then invalid_arg "Dynamic.delete: key outside universe";
  if (not (Hashtbl.mem t.deleted x)) && Hashtbl.mem t.stored_set x then begin
    Hashtbl.add t.deleted x ();
    t.live <- t.live - 1;
    if Hashtbl.length t.deleted >= max 4 (t.stored / 2) then purge t
  end

let size t = t.live
let universe t = t.universe
let small_level_boost t = t.boost

(* Change the effective boost in place: only levels whose replica count
   actually changes are rebuilt (through [build_level], so the rebuild
   counters, write-amplification accounting and the build hook all fire,
   and every touched level gets a fresh record — fresh physical identity
   — which is exactly what lets Epoch publish the re-replicated levels
   as new and retire the old ones). Returns the number of levels
   rebuilt. *)
let set_small_level_boost t boost =
  if not (is_power_of_two boost) then
    invalid_arg "Dynamic.set_small_level_boost: boost must be a power of two";
  if boost = t.boost then 0
  else begin
    t.boost <- boost;
    let rebuilt = ref 0 in
    Array.iteri
      (fun i lvl ->
        match lvl with
        | None -> ()
        | Some l ->
          if Array.length l.replicas <> replica_count t i then begin
            t.levels.(i) <- Some (build_level t ~index:i l.keys);
            incr rebuilt
          end)
      t.levels;
    !rebuilt
  end

let space t =
  Array.fold_left
    (fun acc lvl ->
      match lvl with
      | None -> acc
      | Some l -> acc + Array.fold_left (fun a d -> a + Dictionary.space d) 0 l.replicas)
    0 t.levels

let level_sizes t =
  Array.to_list t.levels
  |> List.filter_map (fun lvl ->
         Option.map (fun l -> (l.index, Array.length l.keys, Array.length l.replicas)) lvl)

let keys_rebuilt t = t.keys_rebuilt
let purges t = t.purges
let cells_written t = t.cells_written
let rebuilds t = t.rebuilds
let rebuild_ns t = t.rebuild_ns
let set_build_hook t f = t.build_hook <- Some f
let clear_build_hook t = t.build_hook <- None

let levels t =
  Array.fold_left (fun acc lvl -> match lvl with None -> acc | Some l -> l :: acc) [] t.levels

let level_index l = l.index
let level_cores l = l.cores

let tombstone_keys t =
  Hashtbl.fold (fun x () acc -> x :: acc) t.deleted [] |> List.sort compare

type contention_summary = {
  total_cells : int;
  per_level : (int * float) list;
  worst : float;
  worst_level : int;
}

let contention_exact t qdist =
  let total_cells = space t in
  let levels = List.filter_map Fun.id (Array.to_list t.levels) in
  (* Search order: largest index first. A query contributes a plan to
     every level it reaches: all levels before its hit level (misses)
     plus the hit level itself; tombstoned and absent keys reach every
     level. *)
  let ordered = List.sort (fun a b -> compare b.index a.index) levels in
  let hit_level x =
    if Hashtbl.mem t.deleted x then None
    else
      List.find_opt (fun l -> Array.exists (fun k -> k = x) l.keys) ordered
      |> Option.map (fun l -> l.index)
  in
  let per_level =
    List.map
      (fun l ->
        let d = l.replicas.(0) in
        let reps = float_of_int (Array.length l.replicas) in
        (* Restrict the pmf to queries that actually reach this level. *)
        let reaches x =
          match hit_level x with None -> true | Some h -> h <= l.index
        in
        let support = Array.to_list (Qdist.support qdist) in
        let reached = List.filter (fun (x, _) -> reaches x) support in
        let normalized =
          if reached = [] then 0.0
          else begin
            let qd = Qdist.weighted ~name:"reached" (Array.of_list reached) in
            let mass = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 reached in
            let c =
              Contention.exact ~cells:(Dictionary.space d) ~qdist:qd
                ~spec:(Dictionary.spec d)
            in
            (* Scale back: qd was renormalised to 1, real mass is
               [mass]; replicas split it [reps] ways; normalise by the
               whole structure's cells. *)
            c.max_total *. mass /. reps *. float_of_int total_cells
          end
        in
        (l.index, normalized))
      ordered
  in
  let worst_level, worst =
    List.fold_left
      (fun (wl, w) (i, v) -> if v > w then (i, v) else (wl, w))
      (-1, 0.0) per_level
  in
  { total_cells; per_level = List.sort compare per_level; worst; worst_level }

let check t rng =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) r f = match r with Error _ -> r | Ok () -> f () in
  (* Level shape. *)
  let rec levels_ok i =
    if i >= Array.length t.levels then Ok ()
    else
      match t.levels.(i) with
      | None -> levels_ok (i + 1)
      | Some l ->
        if l.index <> i then err "level %d stored at slot %d" l.index i
        else if Array.length l.keys <> 1 lsl i then
          err "level %d holds %d keys (want %d)" i (Array.length l.keys) (1 lsl i)
        else if Array.length l.replicas <> replica_count t i then
          err "level %d has %d replicas (want %d)" i (Array.length l.replicas)
            (replica_count t i)
        else levels_ok (i + 1)
  in
  let* () = levels_ok 0 in
  (* No key in two levels; counters consistent. *)
  let seen = Hashtbl.create (2 * max 1 t.stored) in
  let dup = ref None in
  Array.iter
    (fun lvl ->
      match lvl with
      | None -> ()
      | Some l ->
        Array.iter
          (fun x ->
            if Hashtbl.mem seen x && !dup = None then dup := Some x else Hashtbl.add seen x ())
          l.keys)
    t.levels;
  let* () = match !dup with Some x -> err "key %d stored twice" x | None -> Ok () in
  let* () =
    if Hashtbl.length seen <> t.stored then
      err "stored counter %d but %d keys on levels" t.stored (Hashtbl.length seen)
    else Ok ()
  in
  let* () =
    if t.live <> t.stored - Hashtbl.length t.deleted then err "live counter inconsistent"
    else Ok ()
  in
  (* Tombstones point at stored keys. *)
  let* () =
    Hashtbl.fold
      (fun x () acc ->
        match acc with
        | Error _ -> acc
        | Ok () -> if Hashtbl.mem seen x then Ok () else err "tombstone %d not stored" x)
      t.deleted (Ok ())
  in
  (* Static verifiers. *)
  let* () =
    Array.fold_left
      (fun acc lvl ->
        match (acc, lvl) with
        | (Error _, _) | (_, None) -> acc
        | Ok (), Some l ->
          Array.fold_left
            (fun acc d ->
              match acc with
              | Error _ -> acc
              | Ok () -> (
                match Dictionary.verify d with
                | Ok () -> Ok ()
                | Error e -> err "level %d replica: %s" l.index e))
            (Ok ()) l.replicas)
      (Ok ()) t.levels
  in
  (* Behavioural check. *)
  let bad = ref None in
  Hashtbl.iter
    (fun x () ->
      if Hashtbl.mem t.deleted x then begin
        if mem t rng x && !bad = None then bad := Some (x, true)
      end
      else if (not (mem t rng x)) && !bad = None then bad := Some (x, false))
    seen;
  match !bad with
  | Some (x, true) -> err "tombstoned key %d still answers true" x
  | Some (x, false) -> err "live key %d answers false" x
  | None -> Ok ()
