(* The per-file rule pass, on the *Typedtree*: one walk per top-level
   definition over code the compiler has already resolved, so targets
   are real paths and record fields carry their declared types — not
   source text. Two things come out of a file:

   - findings for the local rules (LC001–LC005), and
   - one [def] summary per top-level definition: the resolved
     references it makes (in evaluation order, with the head ident's
     stamp for same-file resolution), the plain reads of epoch/seqlock
     published record types, and its allocation sites classified with
     estimated words per call. Callgraph stitches the summaries into
     the whole-repo graph for LC006/LC007/LC008.

   Granularity choices worth knowing:

   - The unit of analysis is the top-level definition: inner [let rec
     loop] helpers fold into their enclosing definition, which is also
     the granularity baseline contexts and owner= tags use.
   - LC001 matches an Atomic.get and Atomic.set on the same *resolved*
     target within one definition: local idents match by stamp, record
     fields by declared field identity — aliasing no longer evades it.
   - LC003 emits one aggregated finding per definition (first store's
     location, store count in the message) plus one per record type
     that declares mutable fields. Stores to plain local identifiers
     are treated as domain-private: every structure that crosses a
     domain boundary here is carried behind a record field.
   - LC004 exempts lambdas on the *spine* of a manifest function (its
     own parameters and tail positions): returning a closure is the
     function's contract; allocating one mid-body is the bug. The same
     spine logic classifies closure sites for the [def] summaries.
   - First-class-module dispatch (the Dict_intf.S cores unpacked from
     Instance.core) and closures passed as values are opaque edges:
     referencing a function *value* adds a conservative call edge, but a
     call through a record field or a packed module resolves to nothing.
     DESIGN.md §7 spells out the boundary. *)

open Typedtree

type enabled = {
  r1 : bool;
  r2 : bool;
  r3 : bool;
  r4 : bool;
  r5 : bool;
}

let enabled_of rules =
  {
    r1 = List.mem Rule.LC001 rules;
    r2 = List.mem Rule.LC002 rules;
    r3 = List.mem Rule.LC003 rules;
    r4 = List.mem Rule.LC004 rules;
    r5 = List.mem Rule.LC005 rules;
  }

(* ------------------------------------------------------------------ *)
(* Definition summaries (input to Callgraph)                           *)
(* ------------------------------------------------------------------ *)

type use = {
  u_path : string list;  (* normalised components, e.g. ["Epoch"; "pin"] *)
  u_stamp : string option;  (* head ident's unique name, for same-file lookup *)
  u_loc : Location.t;
}

type event =
  | Use of use  (* any reference to a value path: call or escape *)
  | Pub_read of { pr_loc : Location.t; pr_type : string list; pr_field : string }

type alloc = { al_loc : Location.t; al_desc : string; al_words : int option }

type def = {
  d_file : string;
  d_context : string;  (* module-qualified, e.g. "Monitor.tick" *)
  d_qual : string list;  (* [file module] @ submodule path @ [name] *)
  d_loc : Location.t;
  d_stamp : string option;  (* bound ident's unique name *)
  d_is_fun : bool;  (* top-level lambda: body runs per call *)
  mutable d_events : event list;  (* evaluation order *)
  mutable d_allocs : alloc list;  (* evaluation order *)
}

(* "lib/obs/metrics.ml" -> "Metrics" *)
let module_of_path path =
  Filename.basename path |> Filename.remove_extension |> String.capitalize_ascii

(* ------------------------------------------------------------------ *)
(* Path normalisation                                                  *)
(* ------------------------------------------------------------------ *)

(* Dune name-mangles wrapped-library units ("Lc_dynamic__Epoch"); keep
   the part users write. *)
let demangle comp =
  let n = String.length comp in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if comp.[i] = '_' && comp.[i + 1] = '_' then last_sep (i + 2) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some j when j < n -> String.capitalize_ascii (String.sub comp j (n - j))
  | _ -> comp

let rec raw_components (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p', s) -> raw_components p' @ [ s ]
  | Path.Papply (p', _) -> raw_components p'
  | Path.Pextra_ty (p', _) -> raw_components p'

let head_ident (p : Path.t) =
  match p with
  | Path.Pident id -> Some id
  | _ -> ( match Path.head p with id -> Some id | exception _ -> None)

(* [aliases] maps a local module alias's stamp ("M/42" for
   [module M = Lc_cellprobe.Table]) to the normalised components of its
   target, so references through the alias resolve like direct ones. *)
let normalize ~aliases (p : Path.t) =
  let comps = List.map demangle (raw_components p) in
  let comps =
    match (head_ident p, comps) with
    | Some id, _ :: rest -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some target -> target @ rest
      | None -> comps)
    | _ -> comps
  in
  match comps with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | comps -> comps

let dots = String.concat "."

(* ------------------------------------------------------------------ *)
(* Shared small helpers                                                *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable findings : Finding.t list;
  mutable defs : def list;
  aliases : (string, string list) Hashtbl.t;
}

let pos_of (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let add acc ~file ~context rule (loc : Location.t) message =
  let line, col = pos_of loc in
  acc.findings <- Finding.make ~rule ~file ~line ~col ~context ~message :: acc.findings

let mutator_fns = [ "set"; "unsafe_set"; "blit"; "unsafe_blit"; "fill"; "unsafe_fill" ]
let blocking_roots = [ "Mutex"; "Condition"; "Semaphore" ]
let obj_banned = [ "magic"; "repr"; "obj" ]
let alloc_roots = [ "List"; "ListLabels"; "Printf"; "Format" ]
let atomic_rmw = [ "incr"; "decr"; "fetch_and_add"; "compare_and_set"; "exchange" ]

let ident_comps ~aliases e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> ( match normalize ~aliases p with [] -> None | c -> Some c)
  | _ -> None

(* A stable key for the target of an atomic operation: stamps for local
   idents, declared (type, field) identity for projections, so
   [Atomic.get c] / [Atomic.set c v] pair up by what they resolve to.
   Unrecognised subterms collapse to "_", erring towards matching —
   conservative for a race lint. *)
let rec target_key ~aliases e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match p with
    | Path.Pident id -> Ident.unique_name id
    | _ -> dots (normalize ~aliases p))
  | Texp_field (b, _, lbl) ->
    let tname =
      match Types.get_desc lbl.Types.lbl_res with
      | Types.Tconstr (tp, _, _) -> dots (List.map demangle (raw_components tp))
      | _ -> "?"
    in
    Printf.sprintf "%s.%s<%s>" (target_key ~aliases b) lbl.Types.lbl_name tname
  | Texp_apply (f, args) ->
    "("
    ^ target_key ~aliases f
    ^ " "
    ^ String.concat " "
        (List.map
           (fun (_, a) ->
             match a with Some a -> target_key ~aliases a | None -> "_")
           args)
    ^ ")"
  | _ -> "_"

(* Does a store target reach through a record field (t.buf, sh.store,
   st.hist_buckets.(h))? Plain local identifiers do not. *)
let rec reaches_field ~aliases e =
  match e.exp_desc with
  | Texp_field _ -> true
  | Texp_apply (f, (_, Some a) :: _) -> (
    match ident_comps ~aliases f with
    | Some [ ("Array" | "Bytes"); ("get" | "unsafe_get") ] -> reaches_field ~aliases a
    | _ -> false)
  | _ -> false

(* The declared record type behind a field projection, qualified with
   the file's module when the type is file-local (its path is then a
   bare ident). *)
let field_type_comps ~file_module (lbl : Types.label_description) =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (tp, _, _) -> (
    match List.map demangle (raw_components tp) with
    | [ one ] -> Some [ file_module; one ]
    | [] -> None
    | comps -> Some comps)
  | _ -> None

(* Suffix match on dotted names: ["Lc_obs"; "Metrics"; "incr"] matches
   ["Metrics"; "incr"]; requires at least the last two components (or
   everything, when one side is a single name) to agree. *)
let suffix_match a b =
  let la = List.length a and lb = List.length b in
  let k = min la lb in
  k >= 1
  && (k >= 2 || la = 1 || lb = 1)
  &&
  let rec last n l = if List.length l = n then l else last n (List.tl l) in
  last k a = last k b

let matches_qualified ~config comps =
  List.exists (fun c -> suffix_match (String.split_on_char '.' c) comps) config

(* ------------------------------------------------------------------ *)
(* One top-level definition                                            *)
(* ------------------------------------------------------------------ *)

(* Walk one definition body, in source (≈ evaluation) order, doing all
   local rule checks and filling the def summary. [spine] is true while
   we are on the definition's own curried/tail structure, where a
   lambda is the definition's contract rather than a per-call
   allocation. *)
(* Structured constants — immutable constructions whose leaves are all
   literals — are emitted once as static data by the compiler, not
   allocated per call. The compiled form of a format-string literal is
   the canonical example: a deep Texp_construct tree of CamlinternalFormat
   constructors over string/char constants. Constructors carrying an
   inline mutable record are excluded: mutable blocks cannot be shared. *)
let rec is_static_const (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_tuple es -> List.for_all is_static_const es
  | Texp_construct (_, cd, args) ->
    cd.Types.cstr_inlined = None && List.for_all is_static_const args
  | Texp_variant (_, arg) -> (
    match arg with None -> true | Some a -> is_static_const a)
  | _ -> false

let check_binding acc ~hot ~on ~(d : def) expr =
  let aliases = acc.aliases in
  let file = d.d_file and context = d.d_context in
  let file_module = List.hd d.d_qual in
  let in_hot = on.r2 && hot.Hotpath.hot_module file in
  let in_shared = on.r3 && hot.Hotpath.shared_scope file in
  let gets : (string, Location.t) Hashtbl.t = Hashtbl.create 8 in
  let sets : (string, Location.t) Hashtbl.t = Hashtbl.create 8 in
  let rmws : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let store_count = ref 0 in
  let first_store = ref None in
  let note_store loc =
    incr store_count;
    if !first_store = None then first_store := Some loc
  in
  let events = ref [] in
  let allocs = ref [] in
  let note_event ev = events := ev :: !events in
  let note_alloc al_loc al_desc al_words =
    allocs := { al_loc; al_desc; al_words } :: !allocs
  in
  let in_manifest = List.mem context (Hotpath.hot_functions hot file) in
  let rec walk ~spine e =
    match Tcompat.lambda_bodies e with
    | Some bodies ->
      if not spine then (
        note_alloc e.exp_loc "closure (capture happens per call)" (Some 3);
        if on.r4 && in_manifest then
          add acc ~file ~context Rule.LC004 e.exp_loc
            "closure allocated on a manifest hot path (capture happens per call)");
      List.iter (walk ~spine:true) bodies
    | None -> (
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
        let comps = normalize ~aliases p in
        note_event
          (Use { u_path = comps; u_stamp = Option.map Ident.unique_name (head_ident p); u_loc = e.exp_loc });
        match comps with
        | root :: _ when in_hot && List.mem root blocking_roots ->
          add acc ~file ~context Rule.LC002 e.exp_loc
            (Printf.sprintf "blocking primitive %s in a hot-path module" (dots comps))
        | [ "Unix"; (("sleep" | "sleepf") as fn) ] when in_hot ->
          add acc ~file ~context Rule.LC002 e.exp_loc
            (Printf.sprintf "blocking primitive Unix.%s in a hot-path module" fn)
        | [ "Obj"; fn ] when on.r5 && List.mem fn obj_banned ->
          add acc ~file ~context Rule.LC005 e.exp_loc
            (Printf.sprintf "Obj.%s defeats the type system and the memory model" fn)
        | (root :: _ as comps) when on.r4 && in_manifest && List.mem root alloc_roots ->
          add acc ~file ~context Rule.LC004 e.exp_loc
            (Printf.sprintf "%s on a manifest hot path (allocates or formats per call)"
               (dots comps))
        | _ -> ())
      | Texp_apply (f, args) ->
        (match ident_comps ~aliases f with
        | Some [ "Atomic"; op ] when on.r1 -> (
          match args with
          | (_, Some a) :: _ ->
            let key = target_key ~aliases a in
            if op = "get" then (
              if not (Hashtbl.mem gets key) then Hashtbl.add gets key e.exp_loc)
            else if op = "set" then (
              if not (Hashtbl.mem sets key) then Hashtbl.add sets key e.exp_loc)
            else if List.mem op atomic_rmw then Hashtbl.replace rmws key ()
          | _ -> ())
        | Some ([ ("Array" | "Bytes"); fn ] as _p) when in_shared && List.mem fn mutator_fns
          -> (
          match args with
          | (_, Some a) :: _ when reaches_field ~aliases a -> note_store e.exp_loc
          | _ -> ())
        | Some [ ":=" ] when in_shared -> (
          match args with
          | (_, Some lhs) :: _ when reaches_field ~aliases lhs -> note_store e.exp_loc
          | _ -> ())
        | _ -> ());
        walk ~spine:false f;
        List.iter (fun (_, a) -> Option.iter (walk ~spine:false) a) args;
        (* A fully applied call returning a function is (or behaves
           like) a partial application: a fresh closure per call. *)
        (match Types.get_desc e.exp_type with
        | Types.Tarrow _ -> note_alloc e.exp_loc "partial application" (Some 4)
        | _ -> ())
      | Texp_field (b, _, lbl) ->
        walk ~spine:false b;
        (* A field whose own type is Atomic.t is not a plain data read:
           projecting the cell is the prelude to an atomic access, which
           carries its own ordering. Only plain-typed fields of published
           records need pin domination. *)
        let field_is_atomic =
          match Types.get_desc lbl.Types.lbl_arg with
          | Types.Tconstr (tp, _, _) -> (
            match List.rev (List.map demangle (raw_components tp)) with
            | "t" :: "Atomic" :: _ -> true
            | _ -> false)
          | _ -> false
        in
        Option.iter
          (fun comps ->
            if
              (not field_is_atomic)
              && matches_qualified ~config:hot.Hotpath.published_types comps
            then
              note_event
                (Pub_read
                   { pr_loc = e.exp_loc; pr_type = comps; pr_field = lbl.Types.lbl_name }))
          (field_type_comps ~file_module lbl)
      | Texp_setfield (b, _, _, v) ->
        if in_shared then note_store e.exp_loc;
        walk ~spine:false b;
        walk ~spine:false v
      | Texp_tuple es ->
        if not (is_static_const e) then
          note_alloc e.exp_loc "tuple" (Some (List.length es + 1));
        List.iter (walk ~spine:false) es
      | Texp_construct (_, cd, args) ->
        if args <> [] && not (is_static_const e) then
          note_alloc e.exp_loc
            (Printf.sprintf "constructor %s" cd.Types.cstr_name)
            (Some (List.length args + 1));
        List.iter (walk ~spine:false) args
      | Texp_record { fields; extended_expression; _ } ->
        note_alloc e.exp_loc "record" (Some (Array.length fields + 1));
        Option.iter (walk ~spine:false) extended_expression;
        Array.iter
          (fun (_, rld) ->
            match rld with
            | Overridden (_, e') -> walk ~spine:false e'
            | Kept _ -> ())
          fields
      | Texp_array es ->
        note_alloc e.exp_loc "array" (Some (List.length es + 1));
        List.iter (walk ~spine:false) es
      | Texp_let (_, vbs, body) ->
        List.iter (fun vb -> walk ~spine:false vb.vb_expr) vbs;
        walk ~spine body
      | Texp_sequence (a, b) ->
        walk ~spine:false a;
        walk ~spine b
      | Texp_ifthenelse (c, t, e_opt) ->
        walk ~spine:false c;
        walk ~spine t;
        Option.iter (walk ~spine) e_opt
      | Texp_match (s, cases, _) ->
        walk ~spine:false s;
        List.iter
          (fun c ->
            Option.iter (walk ~spine:false) c.c_guard;
            walk ~spine c.c_rhs)
          cases
      | Texp_try (s, cases) ->
        walk ~spine:false s;
        List.iter
          (fun c ->
            Option.iter (walk ~spine:false) c.c_guard;
            walk ~spine c.c_rhs)
          cases
      | _ ->
        (* Generic: every child is off the spine. *)
        let child =
          {
            Tast_iterator.default_iterator with
            expr = (fun _ c -> walk ~spine:false c);
          }
        in
        Tast_iterator.default_iterator.expr child e)
  in
  walk ~spine:true expr;
  d.d_events <- List.rev !events;
  d.d_allocs <- List.rev !allocs;
  if on.r1 then
    Hashtbl.iter
      (fun key set_loc ->
        if Hashtbl.mem gets key && not (Hashtbl.mem rmws key) then
          add acc ~file ~context Rule.LC001 set_loc
            (Printf.sprintf
               "Atomic.get and Atomic.set on %s in one definition without an atomic RMW \
                (fetch_and_add/compare_and_set/incr) — lost update under concurrency"
               key))
      sets;
  (if in_shared then
     match !first_store with
     | Some loc ->
       add acc ~file ~context Rule.LC003 loc
         (Printf.sprintf
            "%d non-atomic store(s) to field-reachable mutable state in this definition"
            !store_count)
     | None -> ())

let check_type_decl acc ~file ~hot ~on ~context (td : type_declaration) =
  if on.r3 && hot.Hotpath.shared_scope file then
    match td.typ_kind with
    | Ttype_record labels ->
      let muts =
        List.filter_map
          (fun l ->
            if l.ld_mutable = Asttypes.Mutable then Some l.ld_name.Location.txt else None)
          labels
      in
      if muts <> [] then
        add acc ~file ~context Rule.LC003 td.typ_loc
          (Printf.sprintf
             "record type declares %d mutable field(s) (%s) in a multi-domain library"
             (List.length muts) (String.concat ", " muts))
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Structure walk with module-qualified contexts                       *)
(* ------------------------------------------------------------------ *)

let rec walk_items acc ~file ~hot ~on ~mods items =
  let prefix = match mods with [] -> "" | ms -> String.concat "." ms ^ "." in
  let file_module = module_of_path file in
  List.iter
    (fun si ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let name, stamp =
              match Tcompat.pat_ident vb.vb_pat with
              | Some (id, name) -> (name, Some (Ident.unique_name id))
              | None -> ("_", None)
            in
            let d =
              {
                d_file = file;
                d_context = prefix ^ name;
                d_qual = (file_module :: mods) @ [ name ];
                d_loc = vb.vb_loc;
                d_stamp = stamp;
                d_is_fun = Tcompat.lambda_bodies vb.vb_expr <> None;
                d_events = [];
                d_allocs = [];
              }
            in
            check_binding acc ~hot ~on ~d vb.vb_expr;
            acc.defs <- d :: acc.defs)
          vbs
      | Tstr_eval (e, _) ->
        let d =
          {
            d_file = file;
            d_context = prefix ^ "_";
            d_qual = (file_module :: mods) @ [ "_" ];
            d_loc = e.exp_loc;
            d_stamp = None;
            d_is_fun = false;
            d_events = [];
            d_allocs = [];
          }
        in
        check_binding acc ~hot ~on ~d e;
        acc.defs <- d :: acc.defs
      | Tstr_type (_, tds) ->
        List.iter
          (fun td ->
            check_type_decl acc ~file ~hot ~on ~context:(prefix ^ Ident.name td.typ_id) td)
          tds
      | Tstr_module mb -> walk_module_binding acc ~file ~hot ~on ~mods mb
      | Tstr_recmodule mbs -> List.iter (walk_module_binding acc ~file ~hot ~on ~mods) mbs
      | Tstr_include { incl_mod = me; _ } -> walk_module_expr acc ~file ~hot ~on ~mods me
      | _ -> ())
    items

and walk_module_binding acc ~file ~hot ~on ~mods mb =
  let name = match mb.mb_name.Location.txt with Some s -> s | None -> "_" in
  (* [module M = Path]: remember the alias so references through M
     normalise to the target. *)
  (match (mb.mb_id, mb.mb_expr.mod_desc) with
  | Some id, Tmod_ident (p, _) ->
    Hashtbl.replace acc.aliases (Ident.unique_name id)
      (normalize ~aliases:acc.aliases p)
  | _ -> ());
  walk_module_expr acc ~file ~hot ~on ~mods:(mods @ [ name ]) mb.mb_expr

and walk_module_expr acc ~file ~hot ~on ~mods me =
  match me.mod_desc with
  | Tmod_structure str -> walk_items acc ~file ~hot ~on ~mods str.str_items
  | Tmod_functor (_, body) -> walk_module_expr acc ~file ~hot ~on ~mods body
  | Tmod_constraint (me', _, _, _) -> walk_module_expr acc ~file ~hot ~on ~mods me'
  | _ -> ()

let run ~hot ~rules ~file (structure : structure) =
  let acc = { findings = []; defs = []; aliases = Hashtbl.create 8 } in
  walk_items acc ~file ~hot ~on:(enabled_of rules) ~mods:[] structure.str_items;
  (List.sort Finding.compare acc.findings, List.rev acc.defs)
