(** Shared evaluation context: one scenario plus everything derived from it
    that several experiments reuse (inferred relationships, observed-path
    index, synthetic IRR, collector origins, the memoized SA analyses).

    A context is safe to share between domains: every field except the SA
    cache ([sa_cache]/[sa_pending]) is immutable after [create], and the
    cache is only touched under its mutex. *)

module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph

type t = {
  scenario : Rpi_dataset.Scenario.t;
  inferred : As_graph.t;
      (** Raw Gao relationship inference over all observed paths. *)
  corrected : As_graph.t;
      (** [inferred] with every Looking-Glass vantage's own adjacencies
          re-labelled from its community tags — the paper's Section 4.3
          verification step, which it applies before the import-policy and
          export-policy analyses. *)
  path_index : Rpi_core.Sa_verify.path_index;
  irr : Rpi_irr.Db.t;
  collector_origins : (Asn.t * Rpi_net.Prefix.t list) list;
  focus_tier1 : Asn.t list;  (** AS1, AS3549, AS7018 when present. *)
  sa_lock : Mutex.t;
  sa_done : Condition.t;
      (** Signalled when an in-flight SA analysis finishes (or fails). *)
  sa_pending : (int, unit) Hashtbl.t;
      (** Providers whose SA analysis is being computed right now —
          single-flight claims, so racing domains wait instead of
          duplicating the work. *)
  sa_cache : (int, Rpi_bgp.Rib.t * Rpi_core.Export_infer.report) Hashtbl.t;
      (** Per-provider SA views, memoized across experiments: the
          provider's viewpoint table and
          [Export_infer.analyze corrected ~provider ~origins:collector_origins]
          over it.  Access only through {!sa_view} / {!sa_report}, which
          take [sa_lock]. *)
}

val create :
  ?config:Rpi_dataset.Scenario.config ->
  ?gao_config:Rpi_relinfer.Gao.config ->
  unit ->
  t
(** [gao_config] defaults to Gao's parameters with the peering degree
    ratio lowered to 6 — the synthetic topology compresses absolute
    degrees (hundreds, not thousands), so the discriminating ratio between
    a Tier-1 and its customers is smaller than the measured Internet's. *)

val use_ground_truth_graph : t -> t
(** Swap the inferred graph for the oracle annotated graph (ablation:
    how much do inference errors matter downstream?).  The returned
    context has a fresh, empty SA cache. *)

val sa_view : t -> Asn.t -> Rpi_bgp.Rib.t * Rpi_core.Export_infer.report
(** The provider's viewpoint (its own collector feed) and the SA analysis
    over it, memoized in the context.  Thread-safe and single-flight:
    concurrent calls from several domains return identical reports, and a
    domain racing on a provider someone else is already analyzing waits
    for that result instead of recomputing it. *)

val sa_report : t -> Asn.t -> Rpi_core.Export_infer.report
(** [snd (sa_view t provider)]. *)

val paths_for_prefix : t -> Rpi_net.Prefix.t -> Asn.t list list
(** Every AS path observed for the prefix, across the collector and all
    Looking-Glass tables (Looking-Glass paths prepended with their
    vantage). *)
