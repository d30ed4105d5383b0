(** Plain-text table rendering for experiment output.

    Every experiment prints one or more of these tables; the same values
    can be exported as CSV ({!to_csv}) for external plotting. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption and column headers. *)

val add_row : t -> string list -> unit
(** Append a row; must have exactly as many entries as there are
    columns. *)

val render : t -> string
(** The aligned ASCII rendering, title first. *)

val to_csv : t -> string
(** Comma-separated rendering with the header row (no title). Fields
    containing commas or quotes are quoted. *)

val fmt_g : float -> string
(** Compact general float formatting ["%.4g"]. *)
