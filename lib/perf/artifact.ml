(* Schema-versioned bench artifacts: the BENCH_<n>.json documents a perf
   trajectory is made of. An artifact is only useful if a future session
   can trust it, so everything that could silently change the numbers —
   toolchain, machine, engine calibration constants, seed, git revision
   — is pinned in a fingerprint, the writer rejects non-finite floats
   with a typed error instead of emitting nulls, and the reader
   validates schema name and version before believing a single field. *)

module Codec = Lc_obs.Codec

let schema_name = "lowcon-bench"
let schema_version = 1

type ci = { mean : float; lo : float; hi : float; samples : float list }

type entry = {
  structure : string;
  workload : string;
  domains : int;
  queries_per_domain : int;
  trials : int;
  ns_per_query : ci;
  probes_per_query : ci;
  p50_ns : float;
  p99_ns : float;
  hotspot_ratio : float;
  queries : int;
  probes : int;
  ns_per_update : ci option;
  write_amp : float option;
  minor_words_per_query : float option;
  major_collections : int option;
}

type fingerprint = {
  ocaml_version : string;
  os_type : string;
  word_size : int;
  cores : int;
  git_rev : string;
  seed : int;
  clock_overhead_ns : float;
  probe_sample_period : int;
  created_unix : float;
}

type t = { fingerprint : fingerprint; entries : entry list }

(* ---------------- fingerprinting ---------------- *)

let read_file_opt path = Result.to_option (Codec.read_file path)

(* Resolve HEAD by hand (no git subprocess): follow the symbolic ref to
   its loose file, fall back to packed-refs, then to "unknown" — an
   artifact written outside a checkout is still valid, just unpinned. *)
let git_rev () =
  let rec find_root dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir ".git/HEAD") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_root parent (depth + 1)
  in
  match find_root (Sys.getcwd ()) 0 with
  | None -> "unknown"
  | Some root -> (
    match read_file_opt (Filename.concat root ".git/HEAD") with
    | None -> "unknown"
    | Some head -> (
      let head = String.trim head in
      match String.length head >= 5 && String.sub head 0 5 = "ref: " with
      | false -> head (* detached HEAD: the hash itself *)
      | true -> (
        let r = String.sub head 5 (String.length head - 5) in
        match read_file_opt (Filename.concat root (Filename.concat ".git" r)) with
        | Some rev -> String.trim rev
        | None -> (
          match read_file_opt (Filename.concat root ".git/packed-refs") with
          | None -> "unknown"
          | Some packed ->
            let suffix = " " ^ r in
            let matches line =
              String.length line > String.length suffix
              && String.sub line
                   (String.length line - String.length suffix)
                   (String.length suffix)
                 = suffix
            in
            (match List.find_opt matches (String.split_on_char '\n' packed) with
            | Some line -> String.sub line 0 (String.index line ' ')
            | None -> "unknown")))))

let clock_overhead_ns () =
  let reps = 1024 in
  let t0 = Lc_obs.Clock.now_ns () in
  for _ = 2 to reps do
    ignore (Lc_obs.Clock.now_ns () : int64)
  done;
  let t1 = Lc_obs.Clock.now_ns () in
  Int64.to_float (Int64.sub t1 t0) /. float_of_int reps

let fingerprint ~seed =
  {
    ocaml_version = Sys.ocaml_version;
    os_type = Sys.os_type;
    word_size = Sys.word_size;
    cores = Domain.recommended_domain_count ();
    git_rev = git_rev ();
    seed;
    clock_overhead_ns = clock_overhead_ns ();
    probe_sample_period = Lc_parallel.Engine.probe_sample_period;
    created_unix = Unix.time ();
  }

(* ---------------- the document ---------------- *)

let ci_codec =
  Codec.(
    obj (fun mean lo hi samples -> { mean; lo; hi; samples })
    |> field "mean" (fun c -> c.mean) float
    |> field "lo" (fun c -> c.lo) float
    |> field "hi" (fun c -> c.hi) float
    |> field "samples" (fun c -> c.samples) (list float)
    |> seal
    |> check (fun c ->
           if c.samples = [] then Error "samples must be non-empty"
           else if c.lo > c.hi then Error "confidence interval has lo > hi"
           else Ok ()))

(* The update-path and GC fields are written only for configurations
   that measured them, so artifacts from older suites (and read-only
   configurations) stay byte-compatible. *)
let entry_codec =
  Codec.(
    obj (fun structure workload domains queries_per_domain trials ns_per_query probes_per_query
             p50_ns p99_ns hotspot_ratio queries probes ns_per_update write_amp
             minor_words_per_query major_collections ->
        { structure; workload; domains; queries_per_domain; trials; ns_per_query;
          probes_per_query; p50_ns; p99_ns; hotspot_ratio; queries; probes; ns_per_update;
          write_amp; minor_words_per_query; major_collections })
    |> field "structure" (fun e -> e.structure) string
    |> field "workload" (fun e -> e.workload) string
    |> field "domains" (fun e -> e.domains) int
    |> field "queries_per_domain" (fun e -> e.queries_per_domain) int
    |> field "trials" (fun e -> e.trials) int
    |> field "ns_per_query" (fun e -> e.ns_per_query) ci_codec
    |> field "probes_per_query" (fun e -> e.probes_per_query) ci_codec
    |> field "p50_ns" (fun e -> e.p50_ns) float
    |> field "p99_ns" (fun e -> e.p99_ns) float
    |> field "hotspot_ratio" (fun e -> e.hotspot_ratio) float
    |> field "queries" (fun e -> e.queries) int
    |> field "probes" (fun e -> e.probes) int
    |> opt "ns_per_update" (fun e -> e.ns_per_update) ci_codec
    |> opt "write_amp" (fun e -> e.write_amp) float
    |> opt "minor_words_per_query" (fun e -> e.minor_words_per_query) float
    |> opt "major_collections" (fun e -> e.major_collections) int
    |> seal
    |> check (fun e ->
           if e.domains < 1 then Error "domains must be >= 1"
           else if e.trials < 1 then Error "trials must be >= 1"
           else Ok ()))

let fingerprint_codec =
  Codec.(
    obj (fun ocaml_version os_type word_size cores git_rev seed clock_overhead_ns
             probe_sample_period created_unix ->
        { ocaml_version; os_type; word_size; cores; git_rev; seed; clock_overhead_ns;
          probe_sample_period; created_unix })
    |> field "ocaml_version" (fun f -> f.ocaml_version) string
    |> field "os_type" (fun f -> f.os_type) string
    |> field "word_size" (fun f -> f.word_size) int
    |> field "cores" (fun f -> f.cores) int
    |> field "git_rev" (fun f -> f.git_rev) string
    |> field "seed" (fun f -> f.seed) int
    |> field "clock_overhead_ns" (fun f -> f.clock_overhead_ns) float
    |> field "probe_sample_period" (fun f -> f.probe_sample_period) int
    |> field "created_unix" (fun f -> f.created_unix) float
    |> seal)

let document =
  Codec.(
    document ~name:schema_name ~version:schema_version
      ~summary:(fun t ->
        Printf.sprintf "%d entries, seed %d" (List.length t.entries) t.fingerprint.seed)
      (obj (fun fingerprint entries -> { fingerprint; entries })
      |> field "fingerprint" (fun t -> t.fingerprint) fingerprint_codec
      |> field "entries" (fun t -> t.entries) (list entry_codec)
      |> seal
      |> check (fun t -> if t.entries = [] then Error "entries must be non-empty" else Ok ())))

let to_string = Codec.to_string_strict document
let of_string = Codec.of_string document
let load = Codec.load document
let write = Codec.write document


let next_path ~dir =
  let taken n = Sys.file_exists (Filename.concat dir (Printf.sprintf "BENCH_%d.json" n)) in
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let max_n =
    Array.fold_left
      (fun acc name ->
        match Scanf.sscanf_opt name "BENCH_%d.json%!" (fun n -> n) with
        | Some n -> max acc n
        | None -> acc)
      (-1) entries
  in
  let n = max_n + 1 in
  assert (not (taken n));
  Filename.concat dir (Printf.sprintf "BENCH_%d.json" n)

let key (e : entry) = (e.structure, e.workload, e.domains)
