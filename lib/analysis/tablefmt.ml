type t = { title : string; columns : string list; mutable rows : string list list }

let create ~title ~columns =
  if columns = [] then invalid_arg "Tablefmt.create: no columns";
  { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Tablefmt.add_row: %d cells for %d columns" (List.length row)
         (List.length t.columns));
  t.rows <- t.rows @ [ row ]

let fmt_g v = Printf.sprintf "%.4g" v

let render t =
  let all = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let render_row row = String.concat "  " (List.mapi pad row) in
  let sep = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  let body = List.map render_row t.rows in
  String.concat "\n" ((t.title :: render_row t.columns :: sep :: body) @ [ "" ])

let csv_field f =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
  else f

let to_csv t =
  let line row = String.concat "," (List.map csv_field row) in
  String.concat "\n" (List.map line (t.columns :: t.rows))
