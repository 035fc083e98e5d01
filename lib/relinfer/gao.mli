(** AS-relationship inference from a collection of AS paths, after
    L. Gao, "On inferring autonomous system relationships in the Internet"
    (IEEE/ACM ToN, 2001) — the algorithm the paper uses (reference [12]) to
    annotate the AS graph before inferring routing policies.

    The algorithm exploits the valley-free property: in any legitimate path
    there is a "top provider", the ASs before it climb customer-to-provider
    links and the ASs after it descend provider-to-customer links.  Counting
    transit evidence across many paths and breaking ties with AS degrees
    yields provider/customer labels; pairs adjacent to the top provider with
    weak transit evidence and comparable degrees are re-labelled peers. *)

module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph

type config = {
  sibling_threshold : int;
      (** L: a pair with transit evidence in both directions, each at most
          L, is labelled sibling; above L in both directions, the stronger
          direction wins. *)
  peer_degree_ratio : float;
      (** R: candidate peering pairs whose degree ratio (larger/smaller)
          is below R are labelled peer-to-peer. *)
}

val default_config : config
(** [L = 1], [R = 60.] — the values Gao reports as robust. *)

val degrees : Asn.t list list -> int Asn.Map.t
(** Degree of each AS in the union of adjacencies appearing in the paths. *)

val infer : ?config:config -> Asn.t list list -> As_graph.t
(** [infer paths] returns an annotated graph over every adjacency observed
    in [paths].  Each path must be listed receiver-side first (the order of
    a BGP table); paths shorter than 2 contribute nothing.  Consecutive
    duplicate ASs (prepending) are collapsed. *)

val top_provider_index : int Asn.Map.t -> Asn.t list -> int
(** Index of the highest-degree AS of a path (ties: first).  Exposed for
    tests and for the paper's Appendix analysis. *)
