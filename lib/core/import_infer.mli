(** Inference of import policies from BGP tables (Section 4.1, Table 2).

    Given an AS's routing table (with local preference visible, as in a
    Looking-Glass view) and the annotated AS graph, derive the local
    preference each neighbour class receives, and measure how often the
    assignment is "typical": customer routes preferred over peer and
    provider routes, peer routes over provider routes. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Prefix = Rpi_net.Prefix

type observation = {
  neighbor : Asn.t;
  rel : Relationship.t;
  local_pref : int;
}
(** One (neighbour, relationship, local-pref) triple seen on a route. *)

val observations_for : As_graph.t -> vantage:Asn.t -> Rib.t -> Prefix.t -> observation list
(** The candidate routes of one prefix, with the announcing neighbour
    classified by the graph.  Routes without local preference or with an
    unknown neighbour are skipped. *)

type prefix_verdict =
  | Typical  (** Every comparable pair respects customer > peer > provider. *)
  | Atypical  (** Some pair violates the order (ties included, per the
                  paper's "not lower than" definition). *)
  | Incomparable  (** Fewer than two distinct neighbour classes present. *)

val judge : observation list -> prefix_verdict

type report = {
  vantage : Asn.t;
  prefixes_total : int;  (** Prefixes in the table. *)
  prefixes_compared : int;  (** Prefixes with >= 2 neighbour classes. *)
  typical : int;
  atypical : int;
  pct_typical : float;  (** typical / compared * 100. *)
  class_values : (Relationship.t * int list) list;
      (** Distinct local-pref values seen per class, ascending. *)
}

val report_of :
  vantage:Asn.t ->
  prefixes_total:int ->
  typical:int ->
  atypical:int ->
  (Relationship.t * int) list ->
  report
(** Assemble Table 2 from per-prefix verdict counts and the observed
    (class, local-pref) pairs (duplicates allowed): the compared count is
    [typical + atypical]. *)

val analyze : As_graph.t -> vantage:Asn.t -> Rib.t -> report
(** Table 2 for one AS. *)

val infer_class_preferences : As_graph.t -> vantage:Asn.t -> Rib.t -> (Relationship.t * int) list
(** The dominant (most frequent) local preference per neighbour class —
    a reconstruction of the AS's configured import policy. *)
