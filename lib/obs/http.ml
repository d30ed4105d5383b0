type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body = { status; content_type = "text/plain; charset=utf-8"; body }
let json ?(status = 200) body = { status; content_type = "application/json"; body }

type route = string * (unit -> response)

type t = {
  sock : Unix.file_descr;
  stop_w : Unix.file_descr;
  server : unit Domain.t;
  port : int;
  stopped : bool Atomic.t;
}

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

let write_response fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status (reason status) content_type (String.length body)
  in
  let out = head ^ body in
  let len = String.length out in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd out !pos (len - !pos)
  done

(* A client's whole request head must arrive within this many seconds
   of the accept, so a client that stalls holds its handler (and
   [stop]) for no longer. *)
let request_deadline_s = 2.0

(* Read until the end of the request head (CRLFCRLF) or a size cap; the
   routes are all GETs, so any body is ignored. Before each read, wait
   for the client or the stop pipe, for what is left of the deadline. *)
let read_head ~stop_r fd =
  let t0 = Clock.now_ns () in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    let left = request_deadline_s -. (Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e9) in
    if Buffer.length buf > 16 * 1024 then `Head (Buffer.contents buf)
    else if left <= 0.0 then `Timed_out
    else begin
      match Unix.select [ fd; stop_r ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> `Timed_out
      | readable, _, _ when List.mem stop_r readable -> `Stopped
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then `Head (Buffer.contents buf)
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          let s = Buffer.contents buf in
          let rec has_terminator i =
            i + 3 < String.length s
            && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n')
               || has_terminator (i + 1))
          in
          if has_terminator 0 then `Head s else go ()
        end
    end
  in
  go ()

let respond routes head =
  let request_line = match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  match String.split_on_char ' ' request_line with
  | [ meth; target; _version ] ->
    if meth <> "GET" && meth <> "HEAD" then text ~status:405 "method not allowed\n"
    else begin
      (* Strip any query string; routes match on the path alone. *)
      let path =
        match String.index_opt target '?' with
        | Some i -> String.sub target 0 i
        | None -> target
      in
      match List.assoc_opt path routes with
      | None -> text ~status:404 (Printf.sprintf "no route %s\n" path)
      | Some f -> (
        try f ()
        with e -> text ~status:500 (Printf.sprintf "handler error: %s\n" (Printexc.to_string e)))
    end
  | _ -> text ~status:400 "malformed request line\n"

(* A stop drops the connection unanswered. *)
let handle routes ~stop_r fd =
  match read_head ~stop_r fd with
  | `Stopped -> ()
  | `Timed_out -> write_response fd (text ~status:408 "request head not received in time\n")
  | `Head head -> write_response fd (respond routes head)

(* Each connection is served on its own thread, so a client that stalls
   holds only its own handler. [active] counts the handlers in flight;
   the loop waits for them before it closes the stop pipe they watch. *)
let serve_loop sock stop_r routes =
  let lock = Mutex.create () and idle = Condition.create () in
  let active = ref 0 in
  let serve fd =
    (try handle routes ~stop_r fd with _ -> ());
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    Mutex.protect lock (fun () ->
        decr active;
        Condition.signal idle)
  in
  let running = ref true in
  while !running do
    match Unix.select [ sock; stop_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      if List.mem stop_r readable then running := false
      else if List.mem sock readable then begin
        match Unix.accept sock with
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _addr -> (
          Mutex.protect lock (fun () -> incr active);
          (* With no thread to spare, serve it here. *)
          try ignore (Thread.create serve fd : Thread.t) with _ -> serve fd)
      end
  done;
  Mutex.protect lock (fun () ->
      while !active > 0 do
        Condition.wait idle lock
      done);
  (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
  try Unix.close stop_r with Unix.Unix_error (_, _, _) -> ()

let start ?(host = "127.0.0.1") ~port routes =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen sock 16;
      let actual_port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      let stop_r, stop_w = Unix.pipe () in
      let server = Domain.spawn (fun () -> serve_loop sock stop_r routes) in
      { sock; stop_w; server; port = actual_port; stopped = Atomic.make false }
    with e ->
      (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
      raise e
  in
  t

let port t = t.port

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    (try ignore (Unix.write_substring t.stop_w "x" 0 1 : int)
     with Unix.Unix_error (_, _, _) -> ());
    Domain.join t.server;
    try Unix.close t.stop_w with Unix.Unix_error (_, _, _) -> ()
  end
