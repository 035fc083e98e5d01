(** Verification of inferred AS relationships through BGP communities — the
    paper's Appendix method (Table 4, Fig. 9, Table 11).

    Many ASs tag each route on import with a community encoding the class
    of the announcing neighbour.  Observing one AS's table, the method:
    + groups the AS's neighbours by the community value their routes carry;
    + infers the semantics of each value from the number of prefixes the
      tagged neighbours announce (a provider sends a near-full table, a
      customer a handful, a peer a large-but-partial set);
    + reads back each neighbour's relationship from its tag and compares
      with the relationships inferred from paths. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship

val prefix_counts : Rib.t -> (Asn.t * int) list
(** Prefixes announced per next-hop AS, descending count — the data of
    Fig. 9. *)

val neighbor_tags : vantage:Asn.t -> Rib.t -> (Asn.t * int) list
(** For each next-hop AS, the dominant community *code* (low 16 bits) it is
    tagged with among the vantage AS's own communities.  Codes at or above
    {!Rpi_sim.Policy.no_reexport_code} are ignored (they are origin
    requests, not relationship tags). *)

type semantics = {
  provider_codes : int list;
  peer_codes : int list;
  customer_codes : int list;
}

val infer_semantics : vantage:Asn.t -> has_providers:bool -> Rib.t -> semantics
(** The Appendix's Step 2.  A neighbour announcing at least 80% of the
    table's prefixes is a provider; with [has_providers = false] the top
    announcers are peers.  Neighbours announcing at most 5% of the table
    are customers.  Each community code is assigned the majority
    class of the neighbours carrying it; codes whose neighbours are
    ambiguous inherit the class of the largest member. *)

val classify_neighbor : semantics -> code:int -> Relationship.t option

type report = {
  vantage : Asn.t;
  neighbors_checked : int;
  matching : int;
  pct_verified : float;  (** Table 4's per-AS percentage. *)
  mismatches : (Asn.t * Relationship.t * Relationship.t) list;
      (** (neighbour, community-derived, inferred-from-paths). *)
}

val verify : vantage:Asn.t -> inferred:As_graph.t -> Rib.t -> report
(** Compare community-derived classes against an inferred annotated graph
    for every tagged neighbour. *)
