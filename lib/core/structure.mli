(** Construction of the low-contention dictionary (Section 2.2).

    Given the derived {!Params.t} and a key set [S], the builder:

    + draws [f] uniform in [H^d_s], [g] uniform in [H^d_r] and [z]
      uniform in [[s]^r], forming [h = (f + z_g) mod s] in [R^d_{r,s}]
      and the group map [h' = h mod m] in [R^d_{r,m}];
    + rejects until the property [P(S)] holds — every [g]-bucket load at
      most [cap_g], every group load at most [cap_group], and the FKS
      condition [sum_i l(S,h,i)^2 <= s] (Lemma 9 makes this succeed with
      probability [1/2 - o(1)] per trial, so expected O(1) trials);
    + computes the group base addresses [GBAS], finds a perfect hash for
      every bucket, and writes all [2d + rho + 4] rows.

    The result retains the hash functions and bucket metadata so that
    {!Verify} can recompute every row from them; the query path itself
    ({!Query.query}, and the probe plans derived from it) reads
    everything back out of the cells. *)

exception Build_failed of { stage : string; trials : int; detail : string }
(** Raised when rejection sampling exhausts its budget — statistically
    implausible for valid parameters, so it signals a configuration
    problem rather than bad luck. [stage] names the construction stage
    that gave up (currently always ["P(S) rejection sampling"]),
    [trials] is the number of trials consumed, and [detail] carries the
    instance parameters for the error report. A printer is registered
    with [Printexc]. *)

type t = private {
  params : Params.t;
  table : Lc_cellprobe.Table.t;
  top : Lc_hash.Dm_family.t;  (** [h : U -> [s]], a member of [R^d_{r,s}]. *)
  loads : int array;  (** Bucket loads [l(S, h, i)], length [s]. *)
  gbas : int array;  (** Group base addresses, length [m]. *)
  starts : int array;
      (** Absolute column of each bucket's slot block in the perfect-hash
          and data rows, length [s]. *)
  multipliers : int array;  (** Per-bucket perfect-hash words, length [s]. *)
  trials : int;  (** Rejection-sampling trials until [P(S)] held. *)
  perfect_trials_total : int;
      (** Sum over buckets of per-bucket perfect-hash trials (T6 data). *)
  keys : int array;  (** A defensive copy of [S] for verification. *)
}

val property_p : Params.t -> g:Lc_hash.Poly_hash.t -> h:Lc_hash.Dm_family.t -> keys:int array -> bool
(** The predicate [P(S)] of Section 2.2, checkable in O(n) time; exposed
    for the Lemma 9 experiments (T4). [h] must map to [s]; the group map
    is derived internally as [h mod m]. *)

val build :
  ?max_trials:int -> ?obs:Lc_obs.Obs.t -> Lc_prim.Rng.t -> Params.t -> keys:int array -> t
(** [build rng params ~keys] runs the construction. [max_trials]
    (default 10_000) bounds [P(S)] rejection sampling.
    Raises [Invalid_argument] on duplicate or out-of-universe keys and
    when [Array.length keys <> params.n].

    [obs], when supplied, records the construction on timeline 0 /
    shard 0 of the handle: spans [build] > [P(S)-sampling] /
    [layout-gbas] / [perfect-hashing] / [write-rows], an instant event
    per rejected trial naming the failed sub-check ([reject:g-cap],
    [reject:h'-group-cap], [reject:fks-sum-squares] — the three clauses
    of [P(S)]), and counters [build_ps_trials_total],
    [build_ps_rejects_{g,group,fks}_total],
    [build_perfect_trials_total]. Absent means no telemetry work. *)
