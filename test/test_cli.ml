(* Tier-1 test for the lowcon CLI's flag domains: every count and period
   flag of every subcommand, given 0, -1 or a non-number, exits 0, 1 or
   2 (the EXIT CODES contract) and never prints an uncaught exception;
   every float flag given a value outside its domain exits 2 naming the
   flag. Every run is at -n 64; no run asks for more domains than the
   defaults, since a large --domains would start that many. *)

let lowcon = "../bin/lowcon.exe"

(* Each subcommand with its count and period flags, in long form so a
   negative value cannot be read as a flag. *)
let matrix =
  [
    ("report", [ "--size" ]);
    ("compare", [ "--size" ]);
    ("hotspot", [ "--size"; "--concurrency" ]);
    ("profile", [ "--size"; "--domains"; "--queries" ]);
    ( "monitor",
      [ "--size"; "--domains"; "--queries"; "--top-k"; "--window"; "--journal-capacity" ] );
    ("scale", [ "--size"; "--max-domains"; "--queries"; "--trials" ]);
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Runs lowcon with [args]; its exit code, the command line and its
   combined output. *)
let run args =
  let out = Filename.temp_file "lowcon-cli" ".out" in
  let code = Sys.command (Filename.quote_command lowcon ~stdout:out ~stderr:out args) in
  let text = read_file out in
  Sys.remove out;
  (code, String.concat " " ("lowcon" :: args), text)

let check_flag sub flag value =
  let code, cmd, text =
    run (sub :: Printf.sprintf "%s=%s" flag value :: (if flag = "--size" then [] else [ "--size=64" ]))
  in
  if not (List.mem code [ 0; 1; 2 ]) then Alcotest.failf "%s exited %d:\n%s" cmd code text;
  if contains text "uncaught exception" then Alcotest.failf "%s raised:\n%s" cmd text

let test_subcommand (sub, flags) () =
  List.iter (fun flag -> List.iter (check_flag sub flag) [ "0"; "-1"; "x" ]) flags

(* Each float flag with values outside its domain, after the arguments
   that make a small run should a value be accepted. *)
let small_monitor = [ "monitor"; "--size=64"; "--queries=10"; "--domains=1"; "--no-dashboard" ]

let floats =
  [
    (small_monitor, "--alert-factor", [ "0"; "-1"; "x" ]);
    (small_monitor, "--linger", [ "-1"; "x" ]);
    ([ "perf"; "diff"; "../BENCH_1.json"; "../BENCH_2.json" ], "--alpha", [ "0"; "-1"; "x"; "1.5" ]);
  ]

let test_float_flag (base, flag, values) () =
  List.iter
    (fun value ->
      let code, cmd, text = run (base @ [ Printf.sprintf "%s=%s" flag value ]) in
      if code <> 2 then Alcotest.failf "%s exited %d, want 2:\n%s" cmd code text;
      if not (contains text flag) then Alcotest.failf "%s does not name %s:\n%s" cmd flag text)
    values

let () =
  Alcotest.run "lowcon_cli"
    [
      ( "flags",
        List.map
          (fun ((sub, _) as case) -> Alcotest.test_case sub `Quick (test_subcommand case))
          matrix );
      ( "float domains",
        List.map
          (fun ((_, flag, _) as case) -> Alcotest.test_case flag `Quick (test_float_flag case))
          floats );
    ]
