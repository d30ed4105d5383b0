module Rng = Lc_prim.Rng

type step =
  | Point of int
  | Stride of { base : int; stride : int; count : int }

type t = step array

let step_cells st =
  match st with
  | Point j -> Seq.return (j, 1.0)
  | Stride { base; stride; count } ->
    let p = 1.0 /. float_of_int count in
    Seq.map (fun i -> (base + (i * stride), p)) (Seq.init count Fun.id)

let step_support_size = function
  | Point _ -> 1
  | Stride { count; _ } -> count

let sample_step rng = function
  | Point j -> j
  | Stride { base; stride; count } -> base + (stride * Rng.int rng count)

let probes t = Array.length t

let validate ~cells spec =
  let check_cell j =
    if j < 0 || j >= cells then Error (Printf.sprintf "cell %d out of [0, %d)" j cells)
    else Ok ()
  in
  let check_step st =
    match st with
    | Point j -> check_cell j
    | Stride { base; stride; count } ->
      if count < 1 then Error "Stride with count < 1"
      else if stride < 1 then Error "Stride with stride < 1"
      else
        match check_cell base with
        | Error _ as e -> e
        | Ok () -> check_cell (base + ((count - 1) * stride))
  in
  Array.fold_left
    (fun acc st -> match acc with Error _ -> acc | Ok () -> check_step st)
    (Ok ()) spec

let max_step_probability = function
  | Point _ -> 1.0
  | Stride { count; _ } -> 1.0 /. float_of_int count
