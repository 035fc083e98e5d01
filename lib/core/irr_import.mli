(** Import-policy inference from the IRR (Section 4.1, Table 3).

    RPSL [pref] actions are inverse to local preference (smaller wins).
    For an aut-num object and the annotated AS graph, every ordered pair of
    import rules whose neighbours belong to different classes is checked
    against the typical order: customer pref < peer pref < provider
    pref. *)

module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph

type report = {
  asn : Asn.t;
  rules_classified : int;  (** Import rules whose neighbour's class is known. *)
  pairs_compared : int;
  pairs_typical : int;
  pct_typical : float;  (** Table 3's per-AS percentage (100 when nothing compares). *)
}

val analyze : As_graph.t -> Rpi_irr.Rpsl.aut_num -> report

val analyze_db : As_graph.t -> Rpi_irr.Db.t -> report list
(** The paper's Table 3 pipeline: discard stale objects (not updated
    since 20020101), keep ASs with at least 10 classified import rules and
    at least 8 comparable preference pairs, analyze each.  The paper keeps
    ASs with more than 50 neighbours; the synthetic graph compresses
    degrees, so the threshold is scaled down (EXPERIMENTS.md, Table 3:
    degree ≥ 10 here, > 50 in the paper). *)
