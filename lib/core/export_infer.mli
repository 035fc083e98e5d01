(** Inference of export policies to providers — the paper's central
    algorithm (Section 5.1, Fig. 4).

    From the viewpoint of a provider [u]: a prefix originated by a (direct
    or indirect) customer of [u] whose best route in [u]'s table arrives
    through a peer or provider instead of a customer is a *selectively
    announced (SA) prefix* — evidence that the originating or an
    intermediate customer exported it to only a subset of its providers. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Prefix = Rpi_net.Prefix

type prefix_class =
  | Customer_route  (** Best route descends to a customer — not SA. *)
  | Sa_prefix of { next_hop : Asn.t; via : Relationship.t }
      (** Best route arrives via a peer or provider: selectively
          announced. *)
  | Unreachable  (** No route in the table. *)

val classify_prefix :
  As_graph.t -> provider:Asn.t -> Rib.t -> Prefix.t -> prefix_class
(** Phase 3 of Fig. 4 for one prefix: look at the best route's next-hop AS
    [w]; the prefix is SA when [u] is not a provider (or sibling) of
    [w]. *)

type sa_record = {
  prefix : Prefix.t;
  origin : Asn.t;
  next_hop : Asn.t;
  via : Relationship.t;
}

type report = {
  provider : Asn.t;
  customers_seen : int;  (** Distinct (direct or indirect) customers with prefixes in the table. *)
  customer_prefixes : int;  (** Prefixes originated by those customers. *)
  sa : sa_record list;
  customer_routed : int;
  unreachable : int;
  pct_sa : float;  (** SA / customer prefixes * 100 (Table 5). *)
}

val group_origins :
  origin_of:(Prefix.t -> Rpi_bgp.Route.t list -> Asn.t option) ->
  Rib.t ->
  (Asn.t * Prefix.t list) list
(** The table's prefixes grouped by [origin_of] (prefixes it maps to
    [None] are left out): each group in table-iteration order, groups by
    ascending AS. *)

val origins_of_rib : Rib.t -> (Asn.t * Prefix.t list) list
(** Prefixes grouped by originating AS (last AS of the best path), as the
    paper derives them from the tables themselves. *)

val viewpoint_of_feed : feed:Asn.t -> Rib.t -> Rib.t
(** Reconstruct one feeder's own routing table from a collector table: keep
    only the candidates announced by [feed] and strip the feeder itself
    from the front of each AS path (a RouteViews peer prepends itself when
    announcing its best routes).  This is how the paper turns "routes from
    Oregon" into "the BGP table from the viewpoint of AS u" for the ten
    Tier-1s it has no Looking Glass for. *)

val report_of :
  provider:Asn.t ->
  is_customer:(Asn.t -> bool) ->
  classify:(Prefix.t -> prefix_class) ->
  (Asn.t * Prefix.t list) list ->
  report
(** Phases 2 and 3 of Fig. 4 over given verdicts: for every (origin,
    prefixes) group whose origin is not [provider] and passes
    [is_customer], count the group and tally each prefix by [classify].
    SA records keep the groups' order. *)

val analyze :
  As_graph.t -> provider:Asn.t -> origins:(Asn.t * Prefix.t list) list -> Rib.t -> report
(** The full Fig. 4 algorithm: for every given (origin, prefixes) group,
    Phase 2 decides customer-ship via a customer-path DFS; Phase 3
    classifies each prefix of customers.  [origins] typically comes from
    {!origins_of_rib} over a collector table. *)
