(** Postmortem artifacts: the flight recorder's alert-time dump.

    When a monitored run's hotspot alert transitions quiet -> firing,
    {!capture} freezes the window ring, the {!Lc_obs.Journal} event
    rings and the alert state into one schema-versioned document
    (["lowcon-postmortem"], written atomically as JSON), and {!analyze}
    reconstructs the timeline offline — which stages ran, when workers
    published, which window cut pushed the ratio over the factor, and
    what the hot-cell sketch looked like at the raise. *)

val schema_name : string
(** ["lowcon-postmortem"]. *)

val schema_version : int

type trigger = { index : int; ratio : float; factor : float }
(** The window that fired: its index, its hotspot ratio, and the alert
    factor it exceeded. *)

type alert_state = { active : bool; firing_run : int; fired_total : int }

type t = {
  fingerprint : Artifact.fingerprint;
  structure : string;
  workload : string;
  domains : int;
  alert_factor : float;
  trigger : trigger;
  windows : Lc_obs.Window.entry list;  (** The window ring at dump time, oldest first. *)
  events : Lc_obs.Journal.event list;  (** Journal events, merged in time order. *)
  dropped : int;  (** Journal events lost to ring overwrite before the dump. *)
  alert : alert_state;
}

val capture :
  fingerprint:Artifact.fingerprint ->
  structure:string ->
  workload:string ->
  domains:int ->
  trigger:Lc_obs.Window.entry ->
  Lc_parallel.Engine.Monitor.t ->
  t
(** Freeze the monitor's current state. Intended to be called from an
    [on_alert] hook (journal reads are race-safe, so capturing mid-run
    is fine — the dump is best-effort-fresh, which is what a flight
    recorder wants). *)

val document : t Lc_obs.Codec.document
(** The ["lowcon-postmortem"] v1 shape. *)

val to_string : t -> string
(** Strict serialisation; raises [Failure] naming the JSON path on a
    non-finite value. *)

val write : path:string -> t -> unit
val of_string : string -> (t, string) result
val load : string -> (t, string) result

val analyze : t -> string
(** The human-readable reconstruction: header (structure, trigger,
    alert state), the merged event timeline with millisecond offsets and
    writer labels, and the hot-cell sketch as last published before the
    raise. *)
