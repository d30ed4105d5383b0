(* Rule identities for lc_lint. IDs are stable: a rule, once shipped,
   keeps its ID forever; a retired rule leaves a hole in the numbering
   rather than renumbering its successors, so baseline entries and CI
   history never change meaning.

   LC001–LC005 are the intraprocedural rules (now evaluated on the
   Typedtree, so targets are resolved paths, not source text); LC006–
   LC008 are the interprocedural rules introduced by the ownership-
   verified rewrite — they consume the whole-repo call graph. *)

type t = LC001 | LC002 | LC003 | LC004 | LC005 | LC006 | LC007 | LC008

let all = [ LC001; LC002; LC003; LC004; LC005; LC006; LC007; LC008 ]

let id = function
  | LC001 -> "LC001"
  | LC002 -> "LC002"
  | LC003 -> "LC003"
  | LC004 -> "LC004"
  | LC005 -> "LC005"
  | LC006 -> "LC006"
  | LC007 -> "LC007"
  | LC008 -> "LC008"

let title = function
  | LC001 -> "non-atomic read-modify-write"
  | LC002 -> "blocking primitive in a hot-path module"
  | LC003 -> "shared mutable state outside Atomic"
  | LC004 -> "allocation-prone construct on a manifest hot path"
  | LC005 -> "unsafe Obj coercion"
  | LC006 -> "single-writer claim refuted by the call graph"
  | LC007 -> "published-state read not dominated by a pin"
  | LC008 -> "allocation site reachable from a hot-path root"

(* One-line statement of what the rule protects, used by the JSON
   report, the SARIF rule metadata and the DESIGN.md rule table. *)
let intent = function
  | LC001 ->
    "an Atomic.get and Atomic.set on the same atomic in one definition lose updates under \
     concurrency; use fetch_and_add/compare_and_set/incr, or prove a single writer"
  | LC002 ->
    "Mutex/Condition/Semaphore and Unix.sleep* must not appear in modules on the probe/publish \
     path; blocking there serialises exactly the contention the engine exists to avoid"
  | LC003 ->
    "plain mutable state (mutable fields, array/bytes stores, field-held refs) reachable from \
     multi-domain code is a data race unless it is Atomic or carries a documented \
     single-writer/seqlock argument"
  | LC004 ->
    "closures, List combinators and Printf/Format inside manifest hot functions allocate or \
     format on the per-probe path; hot loops must be allocation-free, and every manifest \
     entry must name a definition, or its path goes unaudited"
  | LC005 ->
    "Obj.magic/Obj.repr defeat the type system and the memory model; never acceptable in this \
     codebase"
  | LC006 ->
    "a baseline entry tagged owner=Module.fn claims its store has a single writer; the call \
     graph must show every non-harness path to that store passing through the declared \
     owner(s), or the claim is prose, not fact"
  | LC007 ->
    "a plain read of an epoch-published or seqlock-published record must happen under a pin \
     (Epoch.pin/acquire, Window.stable_read): an unpinned snapshot read races reclamation"
  | LC008 ->
    "every allocation site (closure, tuple, boxed literal, record, combinator) transitively \
     reachable from a manifest hot root is per-query cost; the words-per-call estimates turn \
     the zero-alloc debt into an itemised table"

let of_id s =
  match String.uppercase_ascii (String.trim s) with
  | "LC001" -> Some LC001
  | "LC002" -> Some LC002
  | "LC003" -> Some LC003
  | "LC004" -> Some LC004
  | "LC005" -> Some LC005
  | "LC006" -> Some LC006
  | "LC007" -> Some LC007
  | "LC008" -> Some LC008
  | _ -> None

(* "LC001,LC004" -> [LC001; LC004]; duplicates collapse, order is the
   canonical rule order. *)
let parse_list s =
  let parts =
    List.filter (fun p -> String.trim p <> "") (String.split_on_char ',' s)
  in
  if parts = [] then Error "empty rule list"
  else
    let rec go acc = function
      | [] -> Ok (List.filter (fun r -> List.mem r acc) all)
      | p :: rest -> (
        match of_id p with
        | Some r -> go (r :: acc) rest
        | None -> Error (Printf.sprintf "unknown rule %S (want LC001..LC008)" (String.trim p)))
    in
    go [] parts
