module Table = Lc_cellprobe.Table

type t = { table : Table.t; n : int }

let build ~universe ~keys =
  if Array.length keys = 0 then invalid_arg "Sorted_array.build: empty key set";
  Array.iter
    (fun x -> if x < 0 || x >= universe then invalid_arg "Sorted_array.build: key outside universe")
    keys;
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then invalid_arg "Sorted_array.build: duplicate key"
  done;
  let n = Array.length sorted in
  let table = Table.create ~cells:n ~bits:(Table.bits_for (universe - 1)) () in
  Array.iteri (fun i x -> Table.write table i x) sorted;
  { table; n }

(* Binary search over cells [lo .. hi]: one deterministic read per
   step. *)
let rec search r x lo hi =
  lo <= hi
  &&
  let mid = (lo + hi) / 2 in
  let v = Dict_intf.point r mid in
  v = x || if v < x then search r x (mid + 1) hi else search r x lo (mid - 1)

let query t r x = search r x 0 (t.n - 1)

let max_probes t =
  let rec depth n = if n <= 0 then 0 else 1 + depth (n / 2) in
  depth t.n

let instance t =
  Instance.of_core
    (Dict_intf.make ~name:"binary-search" ~table:t.table ~max_probes:(max_probes t) (query t))
