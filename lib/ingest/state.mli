(** Incremental policy inference over a streaming Adj-RIB-In.

    A state holds one vantage's table plus a per-prefix cache of the
    verdicts the batch analyses derive for that prefix: its Fig. 4 class
    ({!Rpi_core.Export_infer.classify_prefix}), its best-route origin, its
    Table 2 verdict and (class, local-pref) observations
    ({!Rpi_core.Import_infer}), and its route count per feeding neighbour.
    Updates do not recompute anything: they fold into the rib and add the
    prefix to the {e dirty set}.  The first report request after a batch
    of updates refreshes only the dirty prefixes — retiring each stale
    entry's contribution from the aggregate counters and adding the fresh
    one's — then hands the cached verdicts to the report assembly the
    batch analyses use ({!Rpi_core.Export_infer.report_of},
    {!Rpi_core.Import_infer.report_of}).  Reports are memoized per
    applied-update count, so repeated queries between updates are cache
    hits.

    Invariants (see DESIGN.md):
    - a prefix's cached verdicts depend only on that prefix's candidate
      set and the (immutable) AS graph, so dirty-prefix granularity is
      exact, never approximate;
    - entry accounting is symmetric: an entry retires from every
      aggregate exactly what it added, so counter drift is impossible;
    - reports are byte-identical (through {!Rpi_json}/{!Render}) to the
      batch analyses over the same table — the [incremental_matches_batch]
      property enforces this.

    All operations are thread-safe (internal mutex): the daemon queries a
    state from server domains while the replay loop applies updates. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Prefix = Rpi_net.Prefix

type origin_mode =
  | Derived
      (** Group prefixes by best-route origin from the table itself, as
          {!Rpi_core.Export_infer.origins_of_rib} does. *)
  | Fixed of (Asn.t * Prefix.t list) list
      (** Analyze against an externally supplied origin universe (the
          collector's, in the experiments): prefixes absent from the
          table count as unreachable. *)

type t

val create :
  graph:Rpi_topo.As_graph.t ->
  vantage:Asn.t ->
  ?origins:origin_mode ->
  ?initial:Rib.t ->
  unit ->
  t
(** [origins] defaults to [Derived]; [initial] (default empty) seeds the
    table, with every seeded prefix dirty. *)

val apply : t -> Rpi_bgp.Update.t -> unit
(** Fold one update through {!Feed.apply} and add its prefix to the
    dirty set.  O(rib insert) — no inference runs here. *)

val apply_all : t -> Rpi_bgp.Update.t list -> unit

val rib : t -> Rib.t
val vantage : t -> Asn.t

val graph : t -> Rpi_topo.As_graph.t
(** The immutable AS graph this state infers against (no lock needed —
    the graph never changes after {!create}).  Snapshot publishers pair
    it with {!rib} to re-derive per-prefix verdicts outside the state's
    mutex. *)

type stats = {
  prefixes : int;
  routes : int;
  origin_ases : int;  (** distinct best-route origins *)
  feeding_sessions : int;  (** distinct neighbour ASs over all candidates *)
}

val stats : t -> stats
(** The [bgptool stats] summary, from aggregates. *)

val stats_of_rib : Rib.t -> stats
(** The same summary counted from a whole table: what [bgptool stats]
    prints, and the batch oracle for {!stats}. *)

val sa_report : t -> Rpi_core.Export_infer.report
(** The Fig. 4 SA analysis with this state's vantage as the provider,
    equal to [Export_infer.analyze graph ~provider:vantage ~origins rib]
    for the current table. *)

val import_report : t -> Rpi_core.Import_infer.report
(** Equal to [Import_infer.analyze graph ~vantage rib]. *)

val origin_groups : t -> (Asn.t * Prefix.t list) list
(** The [Derived] origin universe of the current table, equal to
    [Export_infer.origins_of_rib (rib t)] — what a collector state feeds
    to per-vantage states as their [Fixed] origins. *)

val set_origins : t -> origin_mode -> unit
(** Swap the origin universe (the replay loop does this per epoch as the
    collector's origins evolve).  Invalidates only the SA memo. *)

type counters = {
  updates_applied : int;
  refreshes : int;  (** dirty-set flushes *)
  prefixes_recomputed : int;  (** total entries rebuilt across refreshes *)
  dirty_prefixes : int;  (** prefixes touched since the last refresh *)
}

val counters : t -> counters
