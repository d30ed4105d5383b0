(* Discovery, .cmt loading, baseline application, self-check. The
   driver is filesystem-facing; Checks and Callgraph are pure analysis;
   Report is pure data.

   The analyzer consumes what the compiler produced, not what a parser
   guesses: `dune build @lib/check` emits a .cmt per compiled module
   under _build/default/lib, and [run] loads each one and hands the
   typed structure to Checks. A .cmt that is missing or does not load
   is a parse error — exit 2 territory, with the file named — because a
   module the typechecker has not vouched for is a module no rule ever
   saw.

   Tests go through [lint_source], which typechecks an in-memory
   fixture against the stdlib in-process (same front end, no dune), so
   fixtures don't need to live where the scoping rules expect real code
   to live. *)

type source = { path : string  (* repo-relative, '/'-separated *); abs : string }

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let has_suffix ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* Deterministic recursive listing. [skip_hidden] prunes build/VCS/dot
   trees — off when walking _build itself, where .objs dirs are the
   point. *)
let discover ?(skip_hidden = true) ~root ~subdir ~suffix () =
  let skip name =
    skip_hidden && (name = "_build" || name = ".git" || has_prefix ~prefix:"." name)
  in
  let out = ref [] in
  let rec go rel abs =
    match Sys.is_directory abs with
    | true ->
      let entries = Sys.readdir abs in
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          if not (skip name) then
            go (if rel = "" then name else rel ^ "/" ^ name) (Filename.concat abs name))
        entries
    | false -> if has_suffix ~suffix rel then out := { path = rel; abs } :: !out
    | exception Sys_error _ -> ()
  in
  let start_abs = if subdir = "" then root else Filename.concat root subdir in
  if Sys.file_exists start_abs then go subdir start_abs;
  List.rev !out

let read_file abs =
  let ic = open_in_bin abs in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let report_of_exn exn =
  match Location.error_of_exn exn with
  | Some (`Ok (e : Location.error)) ->
    let l = e.Location.main.Location.loc in
    ( Format.asprintf "%a" Location.print_report e,
      l.Location.loc_start.pos_lnum,
      l.Location.loc_start.pos_cnum - l.Location.loc_start.pos_bol )
  | _ -> (Printexc.to_string exn, 1, 0)

(* Parse [content] as an implementation, attributing locations to
   [path]. *)
let parse_impl ~path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn ->
    let msg, line, col = report_of_exn exn in
    let line, col =
      if (line, col) = (1, 0) then
        let p = lexbuf.Lexing.lex_curr_p in
        (p.pos_lnum, p.pos_cnum - p.pos_bol)
      else (line, col)
    in
    Error { Report.pe_file = path; pe_line = line; pe_col = col; pe_message = msg }

let parse_intf ~path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  match Parse.interface lexbuf with
  | (_ : Parsetree.signature) -> Ok ()
  | exception exn ->
    let msg, line, col = report_of_exn exn in
    Error { Report.pe_file = path; pe_line = line; pe_col = col; pe_message = msg }

(* ------------------------------------------------------------------ *)
(* In-process typechecking (fixtures and tests)                        *)
(* ------------------------------------------------------------------ *)

let null_formatter = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let init_typecheck =
  lazy
    (let unix_dir = Filename.concat Config.standard_library "unix" in
     if Sys.file_exists unix_dir then
       Clflags.include_dirs := unix_dir :: !Clflags.include_dirs;
     Compmisc.init_path ())

(* Typecheck one in-memory implementation against the stdlib (plus the
   unix library when installed). Warnings are swallowed: fixtures plant
   suspicious code on purpose. *)
let typecheck ~path content =
  Lazy.force init_typecheck;
  match parse_impl ~path content with
  | Error pe -> Error pe
  | Ok ast -> (
    let saved = !Location.formatter_for_warnings in
    Location.formatter_for_warnings := null_formatter;
    Fun.protect
      ~finally:(fun () -> Location.formatter_for_warnings := saved)
      (fun () ->
        match Tcompat.type_structure (Compmisc.initial_env ()) ast with
        | str -> Ok str
        | exception exn ->
          let msg, line, col = report_of_exn exn in
          Error { Report.pe_file = path; pe_line = line; pe_col = col; pe_message = msg }))

(* ------------------------------------------------------------------ *)
(* .cmt loading                                                        *)
(* ------------------------------------------------------------------ *)

type typed_file = { tf_path : string; tf_str : Typedtree.structure }

let discover_cmts ~root =
  discover ~skip_hidden:false ~root ~subdir:"_build/default/lib" ~suffix:".cmt" ()

(* Build the @lib/check alias so .cmt files exist and are current. A
   failed build is not fatal here: stale or partial .cmt sets surface
   through load errors and the self-check coverage pass. *)
let build_cmts ~root =
  Sys.command
    (Printf.sprintf "cd %s && dune build @lib/check >/dev/null 2>&1" (Filename.quote root))

(* Load one .cmt. [Ok None]: a unit that carries no implementation we
   lint (interfaces, packs, dune-generated alias modules). *)
let load_cmt (src : source) =
  match Cmt_format.read_cmt src.abs with
  | infos -> (
    match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some sf
      when has_suffix ~suffix:".ml" sf && has_prefix ~prefix:"lib/" sf ->
      Ok (Some { tf_path = sf; tf_str = str })
    | _ -> Ok None)
  | exception exn ->
    Error
      {
        Report.pe_file = src.path;
        pe_line = 1;
        pe_col = 0;
        pe_message =
          Printf.sprintf "cannot load .cmt: %s"
            (match exn with
            | Cmt_format.Error (Cmt_format.Not_a_typedtree s) -> "not a typedtree: " ^ s
            | Failure s -> s
            | exn -> Printexc.to_string exn);
      }

(* All typed implementations under lib/, deduplicated by source path
   and sorted for determinism. *)
let load_typed_files ~root ~build =
  if build then ignore (build_cmts ~root : int);
  let cmts = discover_cmts ~root in
  let seen = Hashtbl.create 64 in
  let files, errors =
    List.fold_left
      (fun (fs, errs) src ->
        match load_cmt src with
        | Ok (Some tf) ->
          if Hashtbl.mem seen tf.tf_path then (fs, errs)
          else (
            Hashtbl.add seen tf.tf_path ();
            (tf :: fs, errs))
        | Ok None -> (fs, errs)
        | Error pe -> (fs, pe :: errs))
      ([], []) cmts
  in
  let errors =
    if cmts = [] then
      [
        {
          Report.pe_file = "_build/default/lib";
          pe_line = 1;
          pe_col = 0;
          pe_message =
            "no .cmt files found — run `dune build @lib/check` (is dune on PATH?)";
        };
      ]
    else errors
  in
  (List.sort (fun a b -> String.compare a.tf_path b.tf_path) files, List.rev errors)

(* ------------------------------------------------------------------ *)
(* Baseline application                                                *)
(* ------------------------------------------------------------------ *)

(* Annotate findings against the baseline and account for every entry:
   entries that matched nothing are "unused" (stale debt — surfaced as
   warnings so the allowlist shrinks as code improves), expired entries
   never suppress, and entries with neither owner= nor protocol= are
   "untagged" (prose-only claims — warned so the ledger converges on
   machine-checked entries). Entries for rules outside this run
   ([rules] is a subset under --rules) are exempt from unused and
   untagged accounting: they had no chance to match. *)
let apply_baseline ?baseline ~rules ~today findings =
  match (baseline : Baseline.t option) with
  | None -> (List.map (fun f -> { Report.finding = f; suppressed = None }) findings, None)
  | Some b ->
    let used : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let live = List.filter (fun e -> not (Baseline.is_expired ~today e)) b.Baseline.entries in
    let annotated =
      List.map
        (fun f ->
          match List.find_opt (fun e -> Baseline.matches e f) live with
          | Some e ->
            Hashtbl.replace used e.Baseline.line_no ();
            {
              Report.finding = f;
              suppressed =
                Some
                  {
                    Report.justification = e.Baseline.justification;
                    expires = Option.map Baseline.date_to_string e.Baseline.expires;
                    entry_line = e.Baseline.line_no;
                  };
            }
          | None -> { Report.finding = f; suppressed = None })
        findings
    in
    let in_scope e = List.mem e.Baseline.rule rules in
    let unused =
      List.filter_map
        (fun e ->
          if
            Baseline.is_expired ~today e
            || Hashtbl.mem used e.Baseline.line_no
            || not (in_scope e)
          then None
          else Some (Baseline.entry_to_string e, e.Baseline.line_no))
        b.Baseline.entries
    in
    let expired =
      List.filter_map
        (fun e ->
          if Baseline.is_expired ~today e then Some (Baseline.entry_to_string e, e.Baseline.line_no)
          else None)
        b.Baseline.entries
    in
    let untagged =
      List.filter_map
        (fun e ->
          if in_scope e && not (Baseline.tagged e) then
            Some (Baseline.entry_to_string e, e.Baseline.line_no)
          else None)
        b.Baseline.entries
    in
    ( annotated,
      Some
        {
          Report.baseline_path = b.Baseline.path;
          entries = List.length b.Baseline.entries;
          used = Hashtbl.length used;
          unused;
          expired;
          untagged;
        } )

let today_from_clock () =
  let tm = Unix.localtime (Unix.time ()) in
  { Baseline.y = tm.Unix.tm_year + 1900; m = tm.Unix.tm_mon + 1; d = tm.Unix.tm_mday }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let owner_claims (baseline : Baseline.t option) =
  match baseline with
  | None -> []
  | Some b -> List.filter (fun e -> e.Baseline.owner <> []) b.Baseline.entries

(* Lint one in-memory source under a logical path (tests plant fixtures
   at paths like "lib/parallel/fake.ml" without touching lib/). The
   whole pipeline runs, call-graph rules included, scoped to the one
   file; [claims] supplies owner= entries for LC006. *)
let lint_source ?(hot = Hotpath.default) ?(rules = Rule.all) ?(claims = []) ~path content =
  match typecheck ~path content with
  | Ok str ->
    (* The linted tree is this one file: the manifest's entries for other
       files have nothing here to audit. *)
    let manifest = List.filter (fun (file, _) -> file = path) hot.Hotpath.manifest in
    let hot = { hot with Hotpath.manifest } in
    let findings, defs = Checks.run ~hot ~rules ~file:path str in
    let inter = Callgraph.run ~hot ~rules ~claims ~files:[ path ] defs in
    Ok (List.sort Finding.compare (findings @ inter))
  | Error pe -> Error pe

let run ?(hot = Hotpath.default) ?(rules = Rule.all) ?baseline ?today ?(build = true)
    ~root () =
  let today = match today with Some t -> t | None -> today_from_clock () in
  let typed, cmt_errors = load_typed_files ~root ~build in
  let findings, defs =
    List.fold_left
      (fun (fs, ds) tf ->
        let f, d = Checks.run ~hot ~rules ~file:tf.tf_path tf.tf_str in
        (f :: fs, d :: ds))
      ([], []) typed
  in
  let defs = List.concat (List.rev defs) in
  let inter =
    Callgraph.run ~hot ~rules ~claims:(owner_claims baseline)
      ~files:(List.map (fun tf -> tf.tf_path) typed)
      defs
  in
  let findings = List.sort Finding.compare (List.concat (List.rev findings) @ inter) in
  let results, baseline_summary = apply_baseline ?baseline ~rules ~today findings in
  {
    Report.root;
    files_scanned = List.length typed;
    rules;
    results;
    parse_errors = cmt_errors;
    baseline = baseline_summary;
  }

(* ------------------------------------------------------------------ *)
(* Self-check                                                          *)
(* ------------------------------------------------------------------ *)

type self_check_result = {
  sc_parsed : int;  (* .ml/.mli files parsed *)
  sc_cmts : int;  (* .cmt files that loaded *)
  sc_errors : Report.parse_error list;
}

(* Version-variant sources (tcompat_51.ml, tcompat_52.ml) are compiled
   through dune copy rules under a different module name; the variant
   files themselves have no .cmt of their own. *)
let version_variant path =
  let b = Filename.basename path in
  has_suffix ~suffix:"_51.ml" b || has_suffix ~suffix:"_52.ml" b
  || has_suffix ~suffix:"_53.ml" b

(* Guard the linter's own blind spots, three ways: every .ml/.mli in
   the repo must parse (a file the parser rejects is a file no rule
   ever saw), every .cmt under lib/ must load (the typed pipeline reads
   these), and every lib/ source must be covered by a loaded .cmt (a
   module dune does not compile is a module the typed rules never
   analysed). *)
let self_check ?(build = true) ~root () =
  let mls = discover ~root ~subdir:"" ~suffix:".ml" () in
  let mlis = discover ~root ~subdir:"" ~suffix:".mli" () in
  let parse_errors =
    List.filter_map
      (fun src ->
        match parse_impl ~path:src.path (read_file src.abs) with
        | Ok _ -> None
        | Error pe -> Some pe)
      mls
    @ List.filter_map
        (fun src ->
          match parse_intf ~path:src.path (read_file src.abs) with
          | Ok () -> None
          | Error pe -> Some pe)
        mlis
  in
  let typed, cmt_errors = load_typed_files ~root ~build in
  let covered = Hashtbl.create 64 in
  List.iter (fun tf -> Hashtbl.replace covered tf.tf_path ()) typed;
  let coverage_errors =
    List.filter_map
      (fun src ->
        if
          has_prefix ~prefix:"lib/" src.path
          && (not (version_variant src.path))
          && not (Hashtbl.mem covered src.path)
        then
          Some
            {
              Report.pe_file = src.path;
              pe_line = 1;
              pe_col = 0;
              pe_message = "no loaded .cmt covers this module (dune build @lib/check)";
            }
        else None)
      mls
  in
  {
    sc_parsed = List.length mls + List.length mlis;
    sc_cmts = List.length typed;
    sc_errors = parse_errors @ cmt_errors @ coverage_errors;
  }
