module Table = Lc_cellprobe.Table

type t = {
  table : Table.t;
  universe : int;  (* doubles as the +infinity sentinel *)
  levels : int;
  width : int;  (* cells per row, 2^levels *)
}

(* Fill the 1-indexed Eytzinger heap with the sorted keys (in-order
   traversal); unfilled slots keep the +infinity sentinel. *)
let eytzinger sorted size =
  let heap = Array.make size max_int in
  let pos = ref 0 in
  let rec fill v =
    if v < size then begin
      fill (2 * v);
      if !pos < Array.length sorted then begin
        heap.(v) <- sorted.(!pos);
        incr pos
      end;
      fill ((2 * v) + 1)
    end
  in
  fill 1;
  heap

let build ~universe ~keys =
  if Array.length keys = 0 then invalid_arg "Repl_bst.build: empty key set";
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.iter
    (fun x -> if x < 0 || x >= universe then invalid_arg "Repl_bst.build: key outside universe")
    sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then invalid_arg "Repl_bst.build: duplicate key"
  done;
  let n = Array.length sorted in
  let levels =
    let rec go l = if 1 lsl l >= n + 1 then l else go (l + 1) in
    go 1
  in
  let width = 1 lsl levels in
  let heap = eytzinger sorted width in
  (* Replace the internal max_int padding by the storable sentinel. *)
  let heap = Array.map (fun v -> if v = max_int then universe else v) heap in
  let table = Table.create ~cells:(levels * width) ~bits:(Table.bits_for universe) () in
  for depth = 0 to levels - 1 do
    let nodes = 1 lsl depth in
    for v = nodes to (2 * nodes) - 1 do
      (* Node v's replicas: cells congruent to (v - nodes) mod nodes. *)
      let offset = v - nodes in
      let k = ref offset in
      while !k < width do
        Table.write table ((depth * width) + !k) heap.(v);
        k := !k + nodes
      done
    done
  done;
  { table; universe; levels; width }

(* The descent from node [v] at [depth]: at each level, read one
   replica of the node's pivot; [best] is the largest pivot <= x seen so
   far, -1 if none. *)
let rec descend t r x v depth best =
  if depth = t.levels then best
  else
    let nodes = 1 lsl depth in
    let pivot =
      Dict_intf.replica r
        ~base:((depth * t.width) + (v - nodes))
        ~stride:nodes ~count:(t.width / nodes)
    in
    if x >= pivot && pivot <> t.universe then descend t r x ((2 * v) + 1) (depth + 1) pivot
    else descend t r x (2 * v) (depth + 1) best

let pred t r x =
  if x < 0 || x >= t.universe then invalid_arg "Repl_bst.predecessor: key outside universe";
  descend t r x 1 0 (-1)

let query t r x = pred t r x = x

let predecessor t rng x =
  match pred t (Dict_intf.Sample { probe = Table.read t.table; rng; step = 0 }) x with
  | -1 -> None
  | y -> Some y

let levels t = t.levels

let instance t =
  Instance.of_core
    (Dict_intf.make ~name:"repl-bst-predecessor" ~table:t.table ~max_probes:t.levels (query t))
