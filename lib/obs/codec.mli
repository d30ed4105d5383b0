(** Bidirectional JSON codecs: one declaration per JSON shape.

    A value of type ['a t] declares how an ['a] is laid out as JSON and
    yields both directions from that one declaration: an encoder to
    {!Json.t} and a {e total} decoder that validates while it reads.
    Wrong types, missing members, failed invariants and malformed
    elements are [Error]s naming the path to the offending member
    ([entries[3].ns_per_query: confidence interval has lo > hi]), never
    exceptions. Encoders keep the declared member order, so a document
    decodes and re-encodes to the same bytes. Unknown members are
    ignored.

    Records are built member by member —
    [obj (fun mean lo -> { mean; lo }) |> field "mean" (fun c -> c.mean) float
    |> field "lo" (fun c -> c.lo) float |> seal] — and a {!document}
    adds the ["schema"] / ["version"] header every [lowcon-*] artifact
    carries. *)

type 'a t

val encode : 'a t -> 'a -> Json.t

val decode : 'a t -> Json.t -> ('a, string) result
(** Never raises. *)

(** {2 Values} *)

val int : int t
val float : float t
(** Reads an integer-valued number back as a float: [3.0] prints as
    [3] and re-reads as {!Json.Int}. *)

val string : string t
val bool : bool t

val list : 'a t -> 'a list t
(** A JSON array; anything else is an error. *)

val nullable : 'a t -> 'a option t
(** [None] is [null]. *)

val enum : (string * 'a) list -> 'a t
(** A string drawn from a fixed table; values are compared with [=]. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
(** A 2-element array. *)

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
(** A 3-element array. *)

val keyed : string list -> 'a t -> 'a list t
(** An object whose members are exactly the given names, in order, all
    of one shape. *)

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv to_b of_b c] reads and writes an ['a] through [c]'s shape. *)

val check : ('a -> (unit, string) result) -> 'a t -> 'a t
(** Attach an invariant that every decoded value must satisfy; the
    error message is reported at the value's path. Encoding does not
    check. *)

(** {2 Objects} *)

type ('o, 'f) obj
(** An object codec for ['o] under construction; ['f] is what the
    constructor still needs. *)

val obj : 'f -> ('o, 'f) obj
(** Start an object with its constructor, which takes the decoded
    members in declaration order. *)

val field : string -> ('o -> 'a) -> 'a t -> ('o, 'a -> 'b) obj -> ('o, 'b) obj
(** A required member. *)

val opt : string -> ('o -> 'a option) -> 'a t -> ('o, 'a option -> 'b) obj -> ('o, 'b) obj
(** An optional member: absent when [None], and decoded as [None] when
    absent. *)

val inline : ('o -> 'a) -> 'a t -> ('o, 'a -> 'b) obj -> ('o, 'b) obj
(** Splice the members of an object codec into this object. Raises
    [Invalid_argument] if the codec is not an object codec. *)

val seal : ('o, 'o) obj -> 'o t

(** {2 Tagged variants} *)

type 'a case

val case : string -> ('a -> 'p option) -> ('p -> 'a) -> 'p t -> 'a case
(** [case tag project inject payload]: the values [project] accepts are
    written as the object [payload] with the tag member in front. *)

val tagged : string -> 'a case list -> 'a t
(** [tagged key cases] selects the case by the string member [key]. *)

val flagged : string -> 'a t -> 'a option t
(** [flagged key c]: [None] is [{key: false}]; [Some v] is
    [{key: true}] followed by the members of [v] under the object codec
    [c]. *)

(** {2 Documents} *)

type 'a document
(** A schema-versioned top-level document. *)

val document : name:string -> version:int -> summary:('a -> string) -> 'a t -> 'a document
(** [document ~name ~version ~summary body] writes ["schema": name] and
    ["version": version] ahead of [body]'s members; decoding rejects any
    other schema or version by name. [summary] is the one-line
    description [lowcon validate] prints for a valid document. *)

val to_json : 'a document -> 'a -> Json.t
val of_json : 'a document -> Json.t -> ('a, string) result

val to_string : 'a document -> 'a -> string
(** Non-finite floats become [null] ({!Json.to_string}): for live
    scrapes. *)

val to_string_strict : 'a document -> 'a -> string
(** For artifacts: raises [Failure] naming the JSON path of any NaN or
    infinity instead of writing [null]. *)

val of_string : 'a document -> string -> ('a, string) result

val read_file : string -> (string, string) result
(** The whole file, or an [Error] naming the path for any [Sys_error]
    (a missing file, a directory). *)

val load : 'a document -> string -> ('a, string) result
(** {!read_file} then {!of_string}. *)

val write : 'a document -> path:string -> 'a -> unit
(** {!to_string_strict}, written atomically ({!Export.write_file}). *)

val validator : 'a document -> string * (Json.t -> (string, string) result)
(** [(name, check)]: [check] decodes a parsed document and returns
    ["<name> v<version>, <summary>"]. *)
