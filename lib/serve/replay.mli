(** The daemon's data source: the persistence-study timeline (Figs. 6–7)
    turned into per-epoch BGP update streams.

    A plan precomputes, for every epoch, the {!Rpi_ingest.Feed.diff}
    stream that turns the previous epoch's collector table (and each
    served vantage's own-feed viewpoint) into the next one's, plus the
    expected batch tables for cross-checking.  The collector table
    follows the timeline through one {!Rpi_sim.Vantage.watch}, which the
    plan drops once its steps are computed.  Stepping the plan applies
    those streams to the live {!Registry} states — the propagation engine
    never runs again after planning, so serving latency is bounded by the
    dirty-set refresh alone. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Update = Rpi_bgp.Update
module Scenario = Rpi_dataset.Scenario

val collector_label : Asn.t
(** AS0 — the collector state's vantage label.  Never a real origin, so
    the local-route feed convention cannot trigger for collector feeds. *)

type step = {
  index : int;  (** Epoch index. *)
  collector_updates : Update.t list;
  vantage_updates : (Asn.t * Update.t list) list;
  expected_collector : Rib.t;  (** Batch collector table after this step. *)
  expected_views : (Asn.t * Rib.t) list;
      (** Batch own-feed viewpoints after this step. *)
}

type t = {
  scenario : Scenario.t;
  vantages : Asn.t list;
  steps : step list;
  registry : Registry.t;
  position : int Atomic.t;  (** Next step to apply; replay driver only. *)
}

val plan :
  ?config:Scenario.config ->
  ?churn:Rpi_sim.Timeline.churn ->
  ?vantages:Asn.t list ->
  epochs:int ->
  unit ->
  t
(** Build the scenario ([Scenario.small_config] by default), evolve the
    timeline ([Timeline.monthly_churn] by default), and precompute every
    epoch's update streams.  [vantages] defaults to the first two
    collector peers.  Deterministic in [config.seed] and [epochs]. *)

val registry : t -> Registry.t
val length : t -> int
val position : t -> int

val step : t -> bool
(** Apply the next epoch's updates to the registry states and re-key the
    vantage states' [Fixed] origins from the collector's current origin
    groups.  Returns [false] when the plan is exhausted.  Must be called
    from a single driver; the states' own locks make concurrent server
    queries safe. *)

val run : ?epoch_ms:int -> ?stop:(unit -> bool) -> ?on_epoch:(int -> unit) -> t -> unit
(** Step through the remaining epochs, sleeping [epoch_ms] (default 1000)
    between steps.  [stop] is polled between steps and during the sleep
    (in 50 ms slices), so a drain request interrupts promptly. *)

type selftest_report = { epochs_checked : int; comparisons : int }

val selftest : t -> (selftest_report, string) result
(** Step through every epoch, comparing incremental state against the
    from-scratch batch recompute: tables by {!Rib.equal}, collector stats
    and per-vantage SA reports byte-for-byte through {!Rpi_json}.
    Consumes the plan (requires position 0); stops at the first
    mismatch. *)
