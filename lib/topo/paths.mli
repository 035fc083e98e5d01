(** Path algorithms over the annotated AS graph.

    Implements Phase 2 of the paper's export-policy inference algorithm
    (Fig. 4): deciding whether an AS is a direct or indirect customer of a
    provider by searching for a *customer path* — a chain of
    provider-to-customer edges — plus the valley-free validity test for
    observed AS paths. *)

module Asn = Rpi_bgp.Asn

val is_direct_customer : As_graph.t -> provider:Asn.t -> Asn.t -> bool

val is_customer : As_graph.t -> provider:Asn.t -> Asn.t -> bool
(** Direct or indirect customer: a provider-to-customer chain exists from
    [provider] down to the AS.  Sibling edges are traversed transparently
    (siblings share customers). *)

val customer_path : As_graph.t -> provider:Asn.t -> Asn.t -> Asn.t list option
(** A provider-to-customer chain [provider; ...; target] found by DFS, or
    [None].  Deterministic: neighbours explored in ascending AS order. *)

val customer_cone_size : As_graph.t -> Asn.t -> int

val is_valley_free : As_graph.t -> Asn.t list -> bool
(** Does the AS path (listed from the receiving end towards the origin, the
    order paths appear in BGP tables) satisfy the export rules of
    Section 2.2: zero or more customer-to-provider hops, at most one peering
    hop, then zero or more provider-to-customer hops?  Sibling hops are
    transparent; consecutive repeats of an AS (prepending) collapse to one
    hop.  Paths with unknown edges are rejected. *)

val classify_path :
  As_graph.t -> observer:Asn.t -> Asn.t list -> Relationship.t option
(** How the observer classifies the route that carried this path: by the
    relationship to the first hop.  [None] for an empty path or an unknown
    first hop. *)

val is_customer_path : As_graph.t -> Asn.t list -> bool
(** True when every consecutive pair of the path (receiver to origin) is a
    provider-to-customer (or sibling) edge — i.e. the path descends the
    hierarchy only. *)

val provider_chain_exists : As_graph.t -> from_as:Asn.t -> Asn.t -> bool
(** [provider_chain_exists g ~from_as target]: can [target] be reached from
    [from_as] climbing only customer-to-provider edges?  (Used to detect
    "the provider appears above an upstream provider in the path".) *)
