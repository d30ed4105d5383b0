(** The hysteresis policy: a pure, sequential state machine deciding
    when replication should move.

    The idiom is ported from the contention-adaptive trees'
    [lock_statistics] (HIGH_CONT/LOW_CONT thresholds driving split/join)
    — from locks to replica counts. A per-component contention {e score}
    accumulates every window: a {e hot} window (windowed contention
    ratio at or above [high_ratio]) adds [hot_contrib], a {e cool} one
    (ratio at or below [low_ratio]) subtracts [cool_contrib], and the
    score saturates at the trip thresholds. When the score reaches
    [high_threshold] the policy raises the replication boost one
    multiplicative [step]; at [low_threshold] it lowers one step; either
    action resets the score and starts a [cooldown_windows]-window hold
    during which no further action fires, so a flapping signal cannot
    make the boost oscillate (asymmetric contributions give the same
    flap-absorbing bias as the lock statistics' 250/1 split).

    The module is deliberately free of domains, clocks and telemetry:
    one {!step} per window, everything else is the caller's. That is
    what makes the no-oscillation and decay properties unit-testable. *)

type config = {
  high_ratio : float;
      (** A window whose contention ratio is >= this is {e hot}. *)
  low_ratio : float;
      (** A window whose ratio is <= this is {e cool}; between the two
          the score holds (the hysteresis dead band). *)
  hot_contrib : int;  (** Score added per hot window. *)
  cool_contrib : int;  (** Score subtracted per cool window. *)
  high_threshold : int;  (** Raise when the score reaches this. *)
  low_threshold : int;
      (** Lower when the score falls to this (negative). *)
  cooldown_windows : int;
      (** Windows to hold after any action before the next may fire. *)
  min_boost : int;  (** Floor (power of two); decay stops here. *)
  max_boost : int;  (** Ceiling (power of two); raises stop here. *)
  step : int;
      (** Multiplicative boost step per action (power of two > 1). *)
}

val default : config
(** [high_ratio = 4.0], [low_ratio = 1.5], [hot_contrib = 250],
    [cool_contrib = 125], thresholds [±1000] (so sustained heat trips in
    4 windows, sustained cool decays in 8), [cooldown_windows = 2],
    boost in [1, 4096] stepping by [8]. *)

val codec : config Lc_obs.Codec.t
(** The policy object [/control.json] serves, one member per field. *)

type action =
  | Raise of { from_boost : int; to_boost : int; score : int }
      (** The score reached [high_threshold] at value [score]. *)
  | Lower of { from_boost : int; to_boost : int; score : int }
      (** The score fell to [low_threshold] at value [score]. *)
  | Hold  (** No threshold tripped, or the policy is cooling down. *)

type t
(** Mutable policy state: score, cooldown counter, current target
    boost. Sequential — one caller. *)

val create : ?config:config -> boost:int -> unit -> t
(** Fresh state at target [boost] (clamped into
    [[min_boost, max_boost]]), score 0, no cooldown. Raises
    [Invalid_argument] on a malformed [config] (non-power-of-two
    boosts/step, inverted ratios or thresholds, non-positive
    contributions). *)

val step : t -> ratio:float -> action
(** Account one window's contention ratio and return the decision. At
    most one non-[Hold] action per call; consecutive non-[Hold] actions
    are always at least [cooldown_windows + 1] calls apart. *)

val score : t -> int
val cooldown : t -> int
(** Windows of hold remaining (0 when armed). *)

val boost : t -> int
(** The current target boost. *)

val config : t -> config
