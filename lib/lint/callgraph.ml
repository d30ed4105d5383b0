(* The whole-repo call graph over Checks def summaries, the three
   interprocedural rules that run on it, and the check that every
   hot-path manifest entry names a definition.

   Nodes are top-level definitions. An edge exists when one definition
   *references* another by path — a call, or an escape of the function
   as a value. Treating escape as a call over-approximates reachability,
   which is the right direction for every rule here: LC006 wants no
   unaccounted path to a write, LC007 wants no unpinned path to a read,
   LC008 wants no unaccounted allocation below a hot root.

   Resolution, in order:
   - a single-component reference resolves by the head ident's stamp to
     a top-level definition of the same file (inner lets and parameters
     have stamps that match nothing and resolve to nothing);
   - a qualified reference resolves by dotted-suffix match against every
     definition's qualified name, preferring same-file candidates and
     keeping *all* candidates when ambiguous (conservative).
   Calls through record fields, functor arguments, and first-class
   modules (the Dict_intf.S cores unpacked from Instance.core) resolve
   to nothing: those are the documented opaque boundaries of the
   analysis. *)

type node = {
  def : Checks.def;
  idx : int;
  mutable callees : (int * Location.t) list;  (* edge with the referencing loc *)
  mutable callers : int list;
}

type t = {
  nodes : node array;
  hot : Hotpath.t;
  by_key : (string * string, int list) Hashtbl.t;  (* (file, context) *)
}

let pos_of (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let finding ?words ~rule ~(node : node) ?loc message =
  let loc = match loc with Some l -> l | None -> node.def.Checks.d_loc in
  let line, col = pos_of loc in
  let f =
    Finding.make ~rule ~file:node.def.Checks.d_file ~line ~col
      ~context:node.def.Checks.d_context ~message
  in
  { f with Finding.words }

let build ~hot (defs : Checks.def list) =
  let nodes =
    Array.of_list (List.mapi (fun idx def -> { def; idx; callees = []; callers = [] }) defs)
  in
  let by_key = Hashtbl.create 64 in
  let by_stamp : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      let d = n.def in
      let key = (d.Checks.d_file, d.Checks.d_context) in
      Hashtbl.replace by_key key
        (match Hashtbl.find_opt by_key key with Some l -> l @ [ n.idx ] | None -> [ n.idx ]);
      match d.Checks.d_stamp with
      | Some s -> Hashtbl.replace by_stamp (d.Checks.d_file, s) n.idx
      | None -> ())
    nodes;
  let resolve (n : node) (u : Checks.use) =
    match u.Checks.u_stamp with
    | Some s when Hashtbl.mem by_stamp (n.def.Checks.d_file, s) ->
      [ Hashtbl.find by_stamp (n.def.Checks.d_file, s) ]
    | _ ->
      if List.length u.Checks.u_path < 2 then []
      else
        let cands = ref [] in
        Array.iter
          (fun m ->
            if Checks.suffix_match u.Checks.u_path m.def.Checks.d_qual then
              cands := m.idx :: !cands)
          nodes;
        let cands = List.rev !cands in
        let same_file =
          List.filter
            (fun i -> nodes.(i).def.Checks.d_file = n.def.Checks.d_file)
            cands
        in
        if same_file <> [] then same_file else cands
  in
  Array.iter
    (fun n ->
      List.iter
        (function
          | Checks.Use u ->
            List.iter
              (fun j ->
                if not (List.mem_assoc j n.callees) then (
                  n.callees <- (j, u.Checks.u_loc) :: n.callees;
                  nodes.(j).callers <- n.idx :: nodes.(j).callers))
              (resolve n u)
          | Checks.Pub_read _ -> ())
        n.def.Checks.d_events)
    nodes;
  Array.iter
    (fun n ->
      n.callees <- List.rev n.callees;
      n.callers <- List.sort_uniq compare n.callers)
    nodes;
  { nodes; hot; by_key }

let forward_closure g seeds =
  let seen = Hashtbl.create 64 in
  let rec go i =
    if not (Hashtbl.mem seen i) then (
      Hashtbl.add seen i ();
      List.iter (fun (j, _) -> go j) g.nodes.(i).callees)
  in
  List.iter go seeds;
  seen

(* ------------------------------------------------------------------ *)
(* LC006: verify owner= single-writer claims                           *)
(* ------------------------------------------------------------------ *)

(* A baseline entry "… owner=M.f" claims: the suppressed construct is
   only ever driven through M.f's call tree. The graph check: every
   caller of any function through which the write site is reached must
   itself be inside some owner's call tree (or be harness code, which
   builds private single-domain instances). Violations surface at the
   *caller*, whose author is the one adding an unaccounted path. *)
let lc006 g (claims : Baseline.entry list) =
  let out = ref [] in
  let emit f = out := f :: !out in
  List.iter
    (fun (e : Baseline.entry) ->
      if e.Baseline.owner <> [] then (
        let writers =
          match Hashtbl.find_opt g.by_key (e.Baseline.file, e.Baseline.context) with
          | Some l -> l
          | None -> []
        in
        let owner_idxs =
          List.concat_map
            (fun o ->
              let comps = String.split_on_char '.' o in
              let hits = ref [] in
              Array.iter
                (fun n ->
                  if Checks.suffix_match comps n.def.Checks.d_qual then
                    hits := n.idx :: !hits)
                g.nodes;
              (match !hits with
              | [] ->
                emit
                  (Finding.make ~rule:Rule.LC006 ~file:e.Baseline.file ~line:1 ~col:0
                     ~context:e.Baseline.context
                     ~message:
                       (Printf.sprintf
                          "baseline line %d: owner %s does not resolve to any definition"
                          e.Baseline.line_no o))
              | _ -> ());
              List.rev !hits)
            e.Baseline.owner
        in
        if writers = [] then
          emit
            (Finding.make ~rule:Rule.LC006 ~file:e.Baseline.file ~line:1 ~col:0
               ~context:e.Baseline.context
               ~message:
                 (Printf.sprintf
                    "baseline line %d: owner= entry names a definition that no longer \
                     exists"
                    e.Baseline.line_no))
        else if owner_idxs <> [] then (
          let in_tree = forward_closure g owner_idxs in
          let covered_writers = List.filter (Hashtbl.mem in_tree) writers in
          List.iter
            (fun w ->
              if not (Hashtbl.mem in_tree w) then
                emit
                  (finding ~rule:Rule.LC006 ~node:g.nodes.(w)
                     (Printf.sprintf
                        "write site is not reachable from declared owner(s) %s — the \
                         single-writer claim does not cover it"
                        (String.concat "," e.Baseline.owner))))
            writers;
          (* Backward slice: the functions inside the owners' tree
             through which the write is reached. *)
          let wreach = Hashtbl.create 16 in
          let rec back i =
            if Hashtbl.mem in_tree i && not (Hashtbl.mem wreach i) then (
              Hashtbl.add wreach i ();
              List.iter back g.nodes.(i).callers)
          in
          List.iter back covered_writers;
          Hashtbl.iter
            (fun d () ->
              List.iter
                (fun c ->
                  let cn = g.nodes.(c) in
                  if
                    (not (Hashtbl.mem in_tree c))
                    && not (g.hot.Hotpath.harness cn.def.Checks.d_file)
                  then
                    let loc =
                      match List.assoc_opt d cn.callees with
                      | Some l -> Some l
                      | None -> None
                    in
                    emit
                      (finding ~rule:Rule.LC006 ~node:cn ?loc
                         (Printf.sprintf
                            "call into single-writer territory from outside the owner \
                             tree: reaches %s (write site %s, owner=%s, baseline line %d)"
                            g.nodes.(d).def.Checks.d_context e.Baseline.context
                            (String.concat "," e.Baseline.owner)
                            e.Baseline.line_no)))
                g.nodes.(d).callers)
            wreach)))
    claims;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* LC007: published-state reads must be pin-dominated                  *)
(* ------------------------------------------------------------------ *)

let is_pin_def g (n : node) =
  Checks.matches_qualified ~config:g.hot.Hotpath.pin_functions n.def.Checks.d_qual

(* A definition "pins" if it is a pin function or calls one anywhere.
   Path-insensitive by design: the codebase convention is pin-at-entry,
   and a function that pins anywhere is treated as a pinned scope. *)
let pinner g (n : node) =
  is_pin_def g n
  || List.exists (fun (j, _) -> is_pin_def g g.nodes.(j)) n.callees
  || List.exists
       (function
         | Checks.Use u ->
           Checks.matches_qualified ~config:g.hot.Hotpath.pin_functions u.Checks.u_path
         | Checks.Pub_read _ -> false)
       n.def.Checks.d_events

let lc007 g =
  let out = ref [] in
  Array.iter
    (fun n ->
      let file = n.def.Checks.d_file in
      if
        g.hot.Hotpath.shared_scope file
        && (not (g.hot.Hotpath.harness file))
        && not (is_pin_def g n)
      then (
        let pinned = ref false in
        let reported : (string, unit) Hashtbl.t = Hashtbl.create 4 in
        List.iter
          (function
            | Checks.Use u ->
              (* Matches both qualified pin calls (Epoch.pin from the
                 engine) and bare same-file ones (pin inside epoch.ml):
                 suffix matching accepts the single-component name. *)
              if
                Checks.matches_qualified ~config:g.hot.Hotpath.pin_functions
                  u.Checks.u_path
              then pinned := true
            | Checks.Pub_read { pr_loc; pr_type; pr_field } ->
              let key = String.concat "." pr_type ^ "#" ^ pr_field in
              if (not !pinned) && not (Hashtbl.mem reported key) then (
                (* Locally unpinned: safe only if every non-harness
                   caller chain passes through a pinning scope. *)
                let escapes = ref [] in
                let visited = Hashtbl.create 16 in
                let rec up i =
                  if not (Hashtbl.mem visited i) then (
                    Hashtbl.add visited i ();
                    let callers =
                      List.filter
                        (fun c ->
                          not (g.hot.Hotpath.harness g.nodes.(c).def.Checks.d_file))
                        g.nodes.(i).callers
                    in
                    if callers = [] then escapes := i :: !escapes
                    else
                      List.iter (fun c -> if not (pinner g g.nodes.(c)) then up c) callers)
                in
                up n.idx;
                if !escapes <> [] then (
                  Hashtbl.add reported key ();
                  let roots =
                    List.sort_uniq String.compare
                      (List.map (fun i -> g.nodes.(i).def.Checks.d_context) !escapes)
                  in
                  let shown =
                    match roots with
                    | a :: b :: c :: _ :: _ -> String.concat ", " [ a; b; c ] ^ ", …"
                    | l -> String.concat ", " l
                  in
                  out :=
                    finding ~rule:Rule.LC007 ~node:n ~loc:pr_loc
                      (Printf.sprintf
                         "plain read of published %s.%s is not dominated by a pin \
                          (%s); unpinned entry path(s) via: %s"
                         (String.concat "." pr_type)
                         pr_field
                         (String.concat "/" g.hot.Hotpath.pin_functions)
                         shown)
                    :: !out)))
          n.def.Checks.d_events))
    g.nodes;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* LC008: transitive hot-path allocation accounting                    *)
(* ------------------------------------------------------------------ *)

(* Close the LC004 manifest over the call graph: every function
   definition reachable from a manifest root is on the hot path, and
   each of its allocation sites is accounted. Root definitions
   themselves are LC004's direct-audit territory and are skipped here.
   Non-function definitions allocate at module init, not per call, so
   the closure neither traverses into nor collects from them. *)
let lc008 g =
  let roots =
    Array.to_list g.nodes
    |> List.filter_map (fun n ->
           if
             List.mem n.def.Checks.d_context
               (Hotpath.hot_functions g.hot n.def.Checks.d_file)
           then Some n.idx
           else None)
  in
  let is_root = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.add is_root i ()) roots;
  (* Multi-source BFS remembering the first root that reaches each
     node, for attribution in the message. *)
  let origin : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun i ->
      Hashtbl.replace origin i g.nodes.(i).def.Checks.d_context;
      Queue.add i q)
    roots;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    let root = Hashtbl.find origin i in
    List.iter
      (fun (j, _) ->
        if g.nodes.(j).def.Checks.d_is_fun && not (Hashtbl.mem origin j) then (
          Hashtbl.replace origin j root;
          Queue.add j q))
      g.nodes.(i).callees
  done;
  let out = ref [] in
  Hashtbl.iter
    (fun i root ->
      if not (Hashtbl.mem is_root i) then (
        let n = g.nodes.(i) in
        let root_label =
          match
            List.find_opt (fun r -> g.nodes.(r).def.Checks.d_context = root) roots
          with
          | Some r -> List.hd g.nodes.(r).def.Checks.d_qual ^ "." ^ root
          | None -> root
        in
        List.iter
          (fun (a : Checks.alloc) ->
            out :=
              finding ?words:a.Checks.al_words ~rule:Rule.LC008 ~node:n
                ~loc:a.Checks.al_loc
                (Printf.sprintf "%s on the hot path from %s%s" a.Checks.al_desc
                   root_label
                   (match a.Checks.al_words with
                   | Some w -> Printf.sprintf " (≈%d words per call)" w
                   | None -> " (unbounded per call)"))
              :: !out)
          n.def.Checks.d_allocs;
        (* Allocating combinators in reachable helpers: same signal
           LC004 gives for the roots themselves. *)
        List.iter
          (function
            | Checks.Use u -> (
              match u.Checks.u_path with
              | hd :: _ when List.mem hd Checks.alloc_roots ->
                out :=
                  finding ~rule:Rule.LC008 ~node:n ~loc:u.Checks.u_loc
                    (Printf.sprintf
                       "%s on the hot path from %s (allocates or formats per call)"
                       (String.concat "." u.Checks.u_path)
                       root_label)
                  :: !out
              | _ -> ())
            | Checks.Pub_read _ -> ())
          n.def.Checks.d_events))
    origin;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Manifest drift: entries that name nothing                           *)
(* ------------------------------------------------------------------ *)

(* A manifest root that the linted tree does not define roots nothing:
   LC004 and LC008 then audit an empty path and stay silent. Report
   each such root, and each manifest file outside [files] (the linted
   tree), as an LC004 finding that names it. *)
let manifest_gaps g ~files =
  let at file context message =
    Finding.make ~rule:Rule.LC004 ~file ~line:1 ~col:0 ~context ~message
  in
  List.concat_map
    (fun (file, fns) ->
      if not (List.mem file files) then
        [
          at file "_"
            (Printf.sprintf
               "hot-path manifest names %s, which the linted tree does not have; its \
                functions (%s) go unaudited"
               file (String.concat ", " fns));
        ]
      else
        List.filter_map
          (fun fn ->
            if Hashtbl.mem g.by_key (file, fn) then None
            else
              Some
                (at file fn
                   (Printf.sprintf
                      "hot-path manifest names %s, which %s does not define; nothing audits \
                       it"
                      fn file)))
          fns)
    g.hot.Hotpath.manifest

let run ~hot ~rules ~claims ~files (defs : Checks.def list) =
  let g = build ~hot defs in
  let fs = ref [] in
  if List.mem Rule.LC004 rules then fs := !fs @ manifest_gaps g ~files;
  if List.mem Rule.LC006 rules then fs := !fs @ lc006 g claims;
  if List.mem Rule.LC007 rules then fs := !fs @ lc007 g;
  if List.mem Rule.LC008 rules then fs := !fs @ lc008 g;
  List.sort Finding.compare !fs
