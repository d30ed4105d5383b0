(* The lint report: findings annotated with their suppression status,
   parse errors, baseline accounting, and the schema-versioned JSON
   encoding ("lowcon-lint" v2) that `lowcon validate` checks. v2 over
   v1: findings may carry "words" (LC008's estimated words allocated
   per call) and the baseline summary carries "untagged" (prose-only
   entries that declare neither owner= nor protocol=).

   Exit-code contract (shared with the CLI and documented in
   `lowcon --help`): 0 = clean or fully suppressed, 1 = active
   findings, 2 = usage or parse error. Parse errors dominate findings:
   a tree the linter cannot read is not a tree it can vouch for. *)

module Codec = Lc_obs.Codec

let schema_name = "lowcon-lint"
let schema_version = 2

type suppression = {
  justification : string;
  expires : string option;  (* YYYY-MM-DD *)
  entry_line : int;  (* line in the baseline file *)
}

type annotated = { finding : Finding.t; suppressed : suppression option }

type parse_error = { pe_file : string; pe_line : int; pe_col : int; pe_message : string }

type baseline_summary = {
  baseline_path : string;
  entries : int;
  used : int;
  unused : (string * int) list;  (* entry text, baseline line *)
  expired : (string * int) list;
  untagged : (string * int) list;  (* prose-only entries: no owner=/protocol= *)
}

type t = {
  root : string;
  files_scanned : int;
  rules : Rule.t list;
  results : annotated list;
  parse_errors : parse_error list;
  baseline : baseline_summary option;
}

let active r = List.filter (fun a -> a.suppressed = None) r.results
let suppressed r = List.filter (fun a -> a.suppressed <> None) r.results

let exit_code r =
  if r.parse_errors <> [] then 2 else if active r <> [] then 1 else 0

(* ------------------------------------------------------------------ *)
(* The JSON document (validate round-trips through this)               *)
(* ------------------------------------------------------------------ *)

let rule_codec = Codec.enum (List.map (fun r -> (Rule.id r, r)) Rule.all)

let finding_codec =
  Codec.(
    obj (fun rule file line col context message words ->
        { Finding.rule; file; line; col; context; message; words })
    |> field "rule" (fun f -> f.Finding.rule) rule_codec
    |> field "file" (fun f -> f.Finding.file) string
    |> field "line" (fun f -> f.Finding.line) int
    |> field "col" (fun f -> f.Finding.col) int
    |> field "context" (fun f -> f.Finding.context) string
    |> field "message" (fun f -> f.Finding.message) string
    |> opt "words" (fun f -> f.Finding.words) int
    |> seal)

(* "suppressed" is a flag; the "suppression" object follows it exactly
   when it is true. *)
let suppression_codec =
  Codec.(
    flagged "suppressed"
      (obj Fun.id
      |> field "suppression" Fun.id
           (obj (fun justification entry_line expires -> { justification; expires; entry_line })
           |> field "justification" (fun s -> s.justification) string
           |> field "entry_line" (fun s -> s.entry_line) int
           |> opt "expires" (fun s -> s.expires) string
           |> seal)
      |> seal))

let entry_line_codec =
  Codec.(
    obj (fun text line -> (text, line))
    |> field "entry" fst string
    |> field "line" snd int
    |> seal)

let baseline_codec =
  Codec.(
    obj (fun baseline_path entries used unused expired untagged ->
        { baseline_path; entries; used; unused; expired; untagged })
    |> field "path" (fun b -> b.baseline_path) string
    |> field "entries" (fun b -> b.entries) int
    |> field "used" (fun b -> b.used) int
    |> field "unused" (fun b -> b.unused) (list entry_line_codec)
    |> field "expired" (fun b -> b.expired) (list entry_line_codec)
    |> field "untagged" (fun b -> b.untagged) (list entry_line_codec)
    |> seal)

(* The summary is derived from the findings: written from the report,
   read back only to be checked against it. *)
let document =
  Codec.(
    document ~name:schema_name ~version:schema_version
      ~summary:(fun r ->
        Printf.sprintf "%d file(s) scanned, %d active / %d suppressed finding(s)"
          r.files_scanned
          (List.length (active r))
          (List.length (suppressed r)))
      (obj (fun root files_scanned rules results parse_errors summary baseline ->
           ({ root; files_scanned; rules; results; parse_errors; baseline }, summary))
      |> field "root" (fun (r, _) -> r.root) string
      |> field "files_scanned" (fun (r, _) -> r.files_scanned) int
      |> field "rules" (fun (r, _) -> r.rules)
           (list
              (obj (fun rule _title _intent -> rule)
              |> field "id" Fun.id rule_codec
              |> field "title" Rule.title string
              |> field "intent" Rule.intent string
              |> seal))
      |> field "findings" (fun (r, _) -> r.results)
           (list
              (obj (fun finding suppressed -> { finding; suppressed })
              |> inline (fun a -> a.finding) finding_codec
              |> inline (fun a -> a.suppressed) suppression_codec
              |> seal))
      |> field "parse_errors" (fun (r, _) -> r.parse_errors)
           (list
              (obj (fun pe_file pe_line pe_col pe_message ->
                   { pe_file; pe_line; pe_col; pe_message })
              |> field "file" (fun pe -> pe.pe_file) string
              |> field "line" (fun pe -> pe.pe_line) int
              |> field "col" (fun pe -> pe.pe_col) int
              |> field "message" (fun pe -> pe.pe_message) string
              |> seal))
      |> field "summary" snd
           (obj (fun a s p e -> (a, s, p, e))
           |> field "active" (fun (a, _, _, _) -> a) int
           |> field "suppressed" (fun (_, s, _, _) -> s) int
           |> field "parse_errors" (fun (_, _, p, _) -> p) int
           |> field "exit_code" (fun (_, _, _, e) -> e) int
           |> seal)
      |> opt "baseline" (fun (r, _) -> r.baseline) baseline_codec
      |> seal
      |> check (fun (r, (s_active, _, _, s_exit)) ->
             if List.length (active r) <> s_active then
               Error
                 (Printf.sprintf "summary.active is %d but findings list %d unsuppressed"
                    s_active
                    (List.length (active r)))
             else if exit_code r <> s_exit then
               Error
                 (Printf.sprintf "summary.exit_code is %d but findings imply %d" s_exit
                    (exit_code r))
             else Ok ())
      |> conv
           (fun r ->
             ( r,
               ( List.length (active r),
                 List.length (suppressed r),
                 List.length r.parse_errors,
                 exit_code r ) ))
           fst))

let to_json = Codec.to_json document
let of_json = Codec.of_json document

(* ------------------------------------------------------------------ *)
(* Renderings                                                          *)
(* ------------------------------------------------------------------ *)

let render_text ?(show_suppressed = false) r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun pe ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: parse error: %s\n" pe.pe_file pe.pe_line pe.pe_col
           pe.pe_message))
    r.parse_errors;
  List.iter
    (fun a -> Buffer.add_string buf (Finding.to_string a.finding ^ "\n"))
    (active r);
  if show_suppressed then
    List.iter
      (fun a ->
        match a.suppressed with
        | Some s ->
          Buffer.add_string buf
            (Printf.sprintf "%s  [suppressed: %s]\n" (Finding.to_string a.finding)
               s.justification)
        | None -> ())
      r.results;
  (match r.baseline with
  | Some b ->
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf
          (Printf.sprintf "%s:%d: warning: unused baseline entry: %s\n" b.baseline_path line
             text))
      b.unused;
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf
          (Printf.sprintf "%s:%d: note: expired baseline entry (finding resurfaces): %s\n"
             b.baseline_path line text))
      b.expired;
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf
          (Printf.sprintf
             "%s:%d: warning: prose-only baseline entry (add owner= or protocol=): %s\n"
             b.baseline_path line text))
      b.untagged
  | None -> ());
  let n_active = List.length (active r) in
  Buffer.add_string buf
    (Printf.sprintf "%d file(s) scanned, %d active finding(s), %d suppressed, %d parse error(s)\n"
       r.files_scanned n_active
       (List.length (suppressed r))
       (List.length r.parse_errors));
  Buffer.contents buf

(* GitHub job-summary flavour: a table of active findings. *)
let render_markdown r =
  let buf = Buffer.create 1024 in
  let n_active = List.length (active r) in
  Buffer.add_string buf
    (Printf.sprintf "## lc_lint: %d active finding(s), %d suppressed, %d file(s) scanned\n\n"
       n_active
       (List.length (suppressed r))
       r.files_scanned);
  if r.parse_errors <> [] then begin
    Buffer.add_string buf "### Parse errors\n\n";
    List.iter
      (fun pe ->
        Buffer.add_string buf
          (Printf.sprintf "- `%s:%d:%d` %s\n" pe.pe_file pe.pe_line pe.pe_col pe.pe_message))
      r.parse_errors;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "### Active findings by rule\n\n";
  Buffer.add_string buf "| Rule | Title | Active | Suppressed |\n|------|-------|-------:|-----------:|\n";
  List.iter
    (fun rule ->
      if List.mem rule r.rules then begin
        let of_list l = List.length (List.filter (fun a -> a.finding.Finding.rule = rule) l) in
        Buffer.add_string buf
          (Printf.sprintf "| %s | %s | %d | %d |\n" (Rule.id rule) (Rule.title rule)
             (of_list (active r)) (of_list (suppressed r)))
      end)
    Rule.all;
  Buffer.add_char buf '\n';
  if n_active > 0 then begin
    Buffer.add_string buf "| Rule | Location | Context | Message |\n";
    Buffer.add_string buf "|------|----------|---------|--------|\n";
    List.iter
      (fun a ->
        let f = a.finding in
        Buffer.add_string buf
          (Printf.sprintf "| %s | `%s:%d:%d` | `%s` | %s |\n" (Rule.id f.Finding.rule)
             f.Finding.file f.Finding.line f.Finding.col f.Finding.context f.Finding.message))
      (active r)
  end
  else if r.parse_errors = [] then Buffer.add_string buf "No unsuppressed findings. :white_check_mark:\n";
  (match r.baseline with
  | Some b when b.unused <> [] ->
    Buffer.add_string buf "\n### Unused baseline entries\n\n";
    List.iter
      (fun (text, line) ->
        Buffer.add_string buf (Printf.sprintf "- line %d: `%s`\n" line text))
      b.unused
  | _ -> ());
  Buffer.contents buf
