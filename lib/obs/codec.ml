(* Bidirectional JSON codecs. A value of type ['a t] is one declaration
   of a JSON shape from which both directions are derived, so an encoder
   and the decoder that validates its output cannot drift apart.
   Decoding is total: every malformed input is an [Error] naming the
   path to the offending member, never an exception. *)

let sprintf = Printf.sprintf

(* A decode error is a path and a message; the path grows as the error
   unwinds through the members and elements that contain it. *)
type error = string * string

let ( let* ) = Result.bind
let fail msg : (_, error) result = Error ("", msg)

let within seg ((path, msg) : error) : error =
  ((if path = "" || path.[0] = '[' then seg ^ path else seg ^ "." ^ path), msg)

let at_index i = within (sprintf "[%d]" i)
let render (path, msg) = if path = "" then msg else path ^ ": " ^ msg

type 'a t = {
  enc : 'a -> Json.t;
  dec : Json.t -> ('a, error) result;
  splice : ('a -> (string * Json.t) list) option;
      (* Object codecs only: the members [inline], [case] and
         [document] splice into an enclosing object. *)
}

let encode c v = c.enc v
let decode c j = Result.map_error render (c.dec j)

let scalar what enc value =
  {
    enc;
    dec = (fun j -> match value j with Some v -> Ok v | None -> fail ("expected " ^ what));
    splice = None;
  }

let int = scalar "an integer" (fun i -> Json.Int i) Json.int_value
let float = scalar "a number" (fun f -> Json.Float f) Json.float_value
let string = scalar "a string" (fun s -> Json.String s) Json.string_value
let bool = scalar "a boolean" (fun b -> Json.Bool b) Json.bool_value

let list c =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest -> (
      match c.dec j with Ok v -> go (i + 1) (v :: acc) rest | Error e -> Error (at_index i e))
  in
  {
    enc = (fun vs -> Json.List (List.map c.enc vs));
    dec = (function Json.List js -> go 0 [] js | _ -> fail "expected an array");
    splice = None;
  }

let nullable c =
  {
    enc = (function None -> Json.Null | Some v -> c.enc v);
    dec = (function Json.Null -> Ok None | j -> Result.map Option.some (c.dec j));
    splice = None;
  }

let enum cases =
  let names = String.concat ", " (List.map (fun (s, _) -> sprintf "%S" s) cases) in
  {
    enc = (fun v -> Json.String (fst (List.find (fun (_, v') -> v' = v) cases)));
    dec =
      (function
      | Json.String s -> (
        match List.assoc_opt s cases with
        | Some v -> Ok v
        | None -> fail (sprintf "expected one of %s, got %S" names s))
      | _ -> fail "expected a string");
    splice = None;
  }

let nth i d j = Result.map_error (at_index i) (d.dec j)

let pair a b =
  {
    enc = (fun (x, y) -> Json.List [ a.enc x; b.enc y ]);
    dec =
      (function
      | Json.List [ x; y ] ->
        let* x = nth 0 a x in
        let* y = nth 1 b y in
        Ok (x, y)
      | _ -> fail "expected a 2-element array");
    splice = None;
  }

let triple a b c =
  {
    enc = (fun (x, y, z) -> Json.List [ a.enc x; b.enc y; c.enc z ]);
    dec =
      (function
      | Json.List [ x; y; z ] ->
        let* x = nth 0 a x in
        let* y = nth 1 b y in
        let* z = nth 2 c z in
        Ok (x, y, z)
      | _ -> fail "expected a 3-element array");
    splice = None;
  }

let conv f g c =
  {
    enc = (fun v -> c.enc (f v));
    dec = (fun j -> Result.map g (c.dec j));
    splice = Option.map (fun s v -> s (f v)) c.splice;
  }

let check f c =
  {
    c with
    dec =
      (fun j ->
        let* v = c.dec j in
        match f v with Ok () -> Ok v | Error msg -> fail msg);
  }

(* ---------------- objects ---------------- *)

let member name j =
  match Json.member name j with Some m -> Ok m | None -> fail (sprintf "missing member %S" name)

let decode_member name c j =
  let* m = member name j in
  Result.map_error (within name) (c.dec m)

let splice_of what c =
  match c.splice with Some s -> s | None -> invalid_arg (what ^ ": not an object codec")

let object_codec build splice =
  {
    enc = (fun v -> Json.Obj (splice v));
    dec = (function Json.Obj _ as j -> build j | _ -> fail "expected an object");
    splice = Some splice;
  }

let keyed names c =
  let rec go j = function
    | [] -> Ok []
    | name :: rest ->
      let* v = decode_member name c j in
      let* vs = go j rest in
      Ok (v :: vs)
  in
  object_codec (fun j -> go j names) (fun vs -> List.map2 (fun k v -> (k, c.enc v)) names vs)

type ('o, 'f) obj = {
  encs : ('o -> (string * Json.t) list) list;  (* newest member first *)
  build : Json.t -> ('f, error) result;
}

let obj f = { encs = []; build = (fun _ -> Ok f) }

let add enc build o =
  {
    encs = enc :: o.encs;
    build =
      (fun j ->
        let* f = o.build j in
        build f j);
  }

let field name get c =
  add (fun v -> [ (name, c.enc (get v)) ]) (fun f j -> Result.map f (decode_member name c j))

let opt name get c =
  add
    (fun v -> match get v with None -> [] | Some x -> [ (name, c.enc x) ])
    (fun f j ->
      match Json.member name j with
      | None -> Ok (f None)
      | Some m -> Result.map (fun x -> f (Some x)) (Result.map_error (within name) (c.dec m)))

let inline get c =
  let splice = splice_of "Codec.inline" c in
  add (fun v -> splice (get v)) (fun f j -> Result.map f (c.dec j))

let seal o =
  let encs = List.rev o.encs in
  object_codec o.build (fun v -> List.concat_map (fun e -> e v) encs)

(* ---------------- tagged variants ---------------- *)

type 'a case = {
  tag : string;
  project : 'a -> (string * Json.t) list option;
  inject : Json.t -> ('a, error) result;
}

let case tag prj inj c =
  let splice = splice_of "Codec.case" c in
  {
    tag;
    project = (fun v -> Option.map splice (prj v));
    inject = (fun j -> Result.map inj (c.dec j));
  }

let tagged key cases =
  let splice v =
    match List.find_map (fun k -> Option.map (fun ms -> (k.tag, ms)) (k.project v)) cases with
    | Some (tag, ms) -> (key, Json.String tag) :: ms
    | None -> invalid_arg "Codec.tagged: value matches no case"
  in
  let tags = enum (List.map (fun k -> (k.tag, k)) cases) in
  object_codec (fun j -> Result.bind (decode_member key tags j) (fun k -> k.inject j)) splice

let flagged key c =
  let splice = splice_of "Codec.flagged" c in
  object_codec
    (fun j ->
      let* on = decode_member key bool j in
      if on then Result.map Option.some (c.dec j) else Ok None)
    (function None -> [ (key, Json.Bool false) ] | Some v -> (key, Json.Bool true) :: splice v)

(* ---------------- documents ---------------- *)

type 'a document = {
  name : string;
  version : int;
  summary : 'a -> string;
  body : 'a t;
  members : 'a -> (string * Json.t) list;
}

let document ~name ~version ~summary body =
  { name; version; summary; body; members = splice_of "Codec.document" body }

let to_json d v =
  Json.Obj (("schema", Json.String d.name) :: ("version", Json.Int d.version) :: d.members v)

let of_json d j =
  let* () =
    match (Json.member "schema" j, Json.member "version" j) with
    | Some (Json.String s), _ when s <> d.name ->
      Error (sprintf "schema is %S, expected %S" s d.name)
    | Some (Json.String _), Some (Json.Int v) when v = d.version -> Ok ()
    | Some (Json.String _), Some (Json.Int v) ->
      Error (sprintf "unsupported %s version %d (reader supports %d)" d.name v d.version)
    | Some (Json.String _), _ -> Error "version: expected an integer"
    | Some _, _ -> Error "schema: expected a string"
    | None, _ -> Error "missing member \"schema\""
  in
  decode d.body j

let to_string d v = Json.to_string (to_json d v)

let to_string_strict d v =
  match Json.to_string_strict (to_json d v) with
  | Ok s -> s
  | Error { Json.path; value } ->
    failwith (sprintf "%s: non-finite value %h at %s — refusing to write" d.name value path)

let of_string d s =
  let* j = Json.parse s in
  of_json d j

(* The one file reader every document loader goes through: any
   [Sys_error] (a missing file, a directory, an unreadable device)
   becomes an [Error] that names the path. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg ->
    Error (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg)

let load d path =
  let* s = read_file path in
  Result.map_error (fun e -> path ^ ": " ^ e) (of_string d s)

let write d ~path v = Export.write_file ~path (to_string_strict d v)

let validator d =
  let line v = sprintf "%s v%d, %s" d.name d.version (d.summary v) in
  (d.name, fun j -> Result.map line (of_json d j))
