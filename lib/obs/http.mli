(** A dependency-free HTTP/1.1 scrape endpoint (Unix module only).

    Just enough HTTP for a metrics scraper and a browser: the server
    runs an accept loop on its own domain, answers [GET]/[HEAD] requests
    by exact path match against the supplied routes, and closes each
    connection after one response ([Connection: close], explicit
    [Content-Length]). Each connection is served on its own thread of
    the server domain, so a client that stalls delays no other scrape. A
    client must send its whole request head within a fixed deadline
    (2 s) of the accept, or is answered 408. Handlers of different
    connections may run concurrently, so a route that reads shared
    monitoring state needs that state to be safe against concurrent
    readers — which {!Window}'s internally-locked readers are.

    Not implemented (deliberately): keep-alive, chunked encoding,
    request bodies, TLS. This is a monitoring side-channel, not a
    public-facing server; bind it to localhost (the default). *)

type response = { status : int; content_type : string; body : string }

val text : ?status:int -> string -> response
(** [text/plain] response, status defaults to 200. *)

val json : ?status:int -> string -> response
(** [application/json] response, status defaults to 200. *)

type route = string * (unit -> response)
(** Exact path (e.g. ["/metrics"]; query strings are stripped before
    matching) and its handler. A handler that raises is answered as a
    500 carrying the exception text. *)

type t

val start : ?host:string -> port:int -> route list -> t
(** Bind [host] (default ["127.0.0.1"]) at [port] (0 picks an ephemeral
    port — read it back with {!port}), spawn the server domain, and
    return immediately. Unknown paths answer 404; non-GET/HEAD methods
    405. Raises [Unix.Unix_error] if the bind fails. *)

val port : t -> int
(** The bound port — the actual one when [start] was given port 0. *)

val stop : t -> unit
(** Wake the server domain, wait for every connection's handler to
    finish, join the domain, and close the listening socket. A
    connection whose request head is still being read is dropped
    unanswered. Idempotent. *)
