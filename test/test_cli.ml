(* Tier-1 test for the lowcon CLI's flag domains: every count and period
   flag of every subcommand, given 0, -1 or a non-number, exits 0, 1 or
   2 (the EXIT CODES contract) and never prints an uncaught exception.
   Every run is at -n 64; no run asks for more domains than the
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

let check_flag sub flag value =
  let args =
    (sub :: Printf.sprintf "%s=%s" flag value :: (if flag = "--size" then [] else [ "--size=64" ]))
  in
  let out = Filename.temp_file "lowcon-cli" ".out" in
  let code = Sys.command (Filename.quote_command lowcon ~stdout:out ~stderr:out args) in
  let text = read_file out in
  Sys.remove out;
  let cmd = String.concat " " ("lowcon" :: args) in
  if not (List.mem code [ 0; 1; 2 ]) then Alcotest.failf "%s exited %d:\n%s" cmd code text;
  if contains text "uncaught exception" then Alcotest.failf "%s raised:\n%s" cmd text

let test_subcommand (sub, flags) () =
  List.iter (fun flag -> List.iter (check_flag sub flag) [ "0"; "-1"; "x" ]) flags

let () =
  Alcotest.run "lowcon_cli"
    [
      ( "flags",
        List.map
          (fun ((sub, _) as case) -> Alcotest.test_case sub `Quick (test_subcommand case))
          matrix );
    ]
