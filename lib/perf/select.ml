(* Structure and workload selection by name — the one vocabulary shared
   by the perf suite, the CLI and the artifact schema, so an entry's
   (structure, workload) key in a BENCH_*.json written today still names
   the same configuration when diffed months later. *)

module Rng = Lc_prim.Rng
module Qdist = Lc_cellprobe.Qdist
module Keyset = Lc_workload.Keyset

let structure_names = [ "lc"; "fks-norepl"; "fks"; "dm"; "cuckoo"; "binary" ]

let dynamic_name = "lc-dyn"

let structure ?obs rng ~universe ~keys = function
  | "lc" -> Lc_core.Dictionary.instance (Lc_core.Dictionary.build ?obs rng ~universe ~keys)
  | "fks-norepl" -> Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys)
  | "fks" -> Lc_dict.Fks.instance (Lc_dict.Fks.build rng ~universe ~keys)
  | "dm" -> Lc_dict.Dm_dict.instance (Lc_dict.Dm_dict.build rng ~universe ~keys)
  | "cuckoo" -> Lc_dict.Cuckoo.instance (Lc_dict.Cuckoo.build rng ~universe ~keys)
  | "binary" -> Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys)
  | s -> failwith (Printf.sprintf "unknown structure %S (want one of %s)" s
                     (String.concat ", " structure_names))

let workload rng ~universe ~keys spec =
  let negs () = Keyset.negatives rng ~universe ~keys ~count:(8 * Array.length keys) in
  match String.split_on_char ':' spec with
  | [ "pos" ] -> Qdist.uniform ~name:"uniform-positive" keys
  | [ "neg" ] -> Qdist.uniform ~name:"uniform-negative" (negs ())
  | [ "point" ] -> Qdist.point keys.(0)
  | [ "mix"; p ] -> (
    match float_of_string_opt p with
    | Some p_pos when p_pos >= 0.0 && p_pos <= 1.0 ->
      Qdist.pos_neg ~pos:keys ~neg:(negs ()) ~p_pos
    | _ -> failwith (Printf.sprintf "bad mix probability in %S" spec))
  | [ "zipf"; s ] -> (
    match float_of_string_opt s with
    | Some skew when skew >= 0.0 -> Qdist.zipf ~skew keys
    | _ -> failwith (Printf.sprintf "bad zipf skew in %S" spec))
  | _ -> failwith (Printf.sprintf "unknown distribution %S" spec)

let rw_fraction spec =
  match String.split_on_char ':' spec with
  | [ "rw"; f ] -> (
    match float_of_string_opt f with
    | Some r when r >= 0.0 && r <= 1.0 -> Some r
    | _ -> failwith (Printf.sprintf "bad read fraction in %S (want rw:F, F in [0,1])" spec))
  | _ -> None

let flash_share spec =
  match String.split_on_char ':' spec with
  | [ "flash"; s ] -> (
    match float_of_string_opt s with
    | Some r when r >= 0.0 && r <= 1.0 -> Some r
    | _ -> failwith (Printf.sprintf "bad hot share in %S (want flash:S, S in [0,1])" spec))
  | _ -> None

let cost spec =
  match String.split_on_char ':' spec with
  | [ "free" ] -> Lc_parallel.Engine.Free
  | [ "spin"; h ] -> (
    match int_of_string_opt h with
    | Some hold when hold >= 0 -> Lc_parallel.Engine.Spinlock { hold }
    | _ -> failwith (Printf.sprintf "bad spin hold in %S" spec))
  | _ -> failwith (Printf.sprintf "unknown cost model %S (want 'free' or 'spin:H')" spec)
