(** The replication controller: sense → decide → act, every step
    telemetry.

    One controller rides a monitored serving run. The monitor domain
    feeds it ({!observe}) each cut window together with the merged
    {!Lc_obs.Heavy} sketch; the controller derives a {e windowed}
    contention ratio (see below), steps the {!Policy} hysteresis, and on
    a trip records a {!decision} on its own flight-recorder ring and
    fires the actuator — for the engine's dynamic path, an
    [Epoch.request_boost] the builder picks up at its next publication,
    so actuation never blocks a reader.

    {b The windowed signal.} The window ring's own [hotspot_ratio] is
    cumulative — after a long flat phase it responds to a flash crowd
    only asymptotically, far too slowly to drive recovery. The
    controller instead diffs successive merged sketches: a space-saving
    counter increments exactly while its cell stays resident (its [err]
    is frozen at entry), so a cell present in both snapshots with
    unchanged [err] contributes its exact count delta; cells that
    entered or re-entered contribute only the guaranteed lower bound
    [count - err] minus their previous estimate, which under churn is
    near zero — by design, since a cell that cannot hold a sketch slot
    is not the window's contention story. The maximum over cells,
    divided by the window's flat bound [queries * max_probes / space]
    (the same frozen space/probe budget the window recorder normalises
    by), is the windowed ratio. It responds within two windows of a
    skew shift (one for the hot cell to take a slot, one resident
    delta), and it {e falls} as actuated replication spreads the hot
    key across replicas — closing the loop.

    {b Threading.} All mutable state is owned by the observing (monitor)
    domain; {!decisions}, the scalar accessors and {!observe}'s results
    may be read concurrently by a scrape domain and tolerate the same
    benign races as the flight recorder (immutable record lists behind
    one mutable head — a reader sees a complete old-or-new list, never a
    torn one). *)

type decision = {
  d_id : int;  (** Monotone decision number, from 1. *)
  d_window : int;  (** Index of the window that tripped the policy. *)
  d_ratio : float;  (** The windowed contention ratio at the trip. *)
  d_cell : int;
      (** The hottest windowed cell — the sketch evidence ([-1] when the
          sketch was empty). *)
  d_count : int;  (** That cell's cumulative sketched count... *)
  d_err : int;  (** ...and its error bracket: true tally in [count ± err]. *)
  d_score : int;  (** The hysteresis score that tripped. *)
  d_action : [ `Raise | `Lower ];
  d_old_boost : int;
  d_new_boost : int;
  d_cooldown : int;  (** Cooldown windows entered after the action. *)
}
(** One actuation decision — exactly what is journaled as
    [Control_decision] and served in [/control.json]; the three views
    reconcile field for field. *)

val decision_codec : decision Lc_obs.Codec.t
(** One decision as [/control.json] and a postmortem's
    [control_decision] event carry it. *)

type t

val create :
  ?policy:Policy.config ->
  ?journal:Lc_obs.Journal.t * int ->
  space:int ->
  max_probes:int ->
  boost:int ->
  unit ->
  t
(** A controller for one run. [space] and [max_probes] fix the flat
    bound the windowed ratio is normalised by (use the same budget the
    monitor's window recorder was created with); [boost] is the
    structure's create-time replication boost; [journal], when given, is
    the flight recorder and the ring index this controller records its
    decisions on (by convention [domains + 3]). *)

val set_actuator : t -> (id:int -> boost:int -> unit) -> unit
(** Install the actuation callback, fired once per non-hold decision
    with the decision id and the new target boost. The engine wires
    [Epoch.request_boost] in here. Install before serving starts. *)

val set_applied_reader : t -> (unit -> int) -> unit
(** Install the getter for the boost the builder has actually applied
    (the engine wires [Epoch.applied_boost]); used only for telemetry
    ([/control.json], gauges). Defaults to the policy's own target. *)

val observe :
  t -> window:int -> queries:int -> Lc_obs.Heavy.entry list -> decision option
(** Account one cut window: derive the windowed ratio from the window's
    merged top-k entries (pass the cut entry's own [top_cells], so the
    journaled evidence reconciles exactly with the window's sketch
    snapshot), step the policy, and on a trip journal + actuate + return
    the decision. Call from the observing domain only, once per
    window. *)

(** {2 Telemetry accessors} (safe from any domain, racy-read tolerant) *)

val decisions : t -> decision list
(** Every decision so far, oldest first. *)

val decisions_total : t -> int

val windows_seen : t -> int
val last_ratio : t -> float
(** The windowed ratio of the most recent {!observe}. *)

val score : t -> int
val cooldown : t -> int

val target_boost : t -> int
(** The policy's current target. *)

val applied_boost : t -> int
(** What the actuator has actually applied (via the applied reader). *)

val base_boost : t -> int
(** The create-time boost. *)

val policy_config : t -> Policy.config
val space : t -> int
val max_probes : t -> int
