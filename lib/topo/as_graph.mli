(** The annotated AS graph (Section 2.1 of the paper): ASs as nodes, edges
    labelled provider-to-customer, peer-to-peer or sibling-to-sibling.

    Relationship values returned by queries are always from the point of
    view of the first AS: [relationship g a b = Some Customer] reads "b is a
    customer of a". *)

module Asn = Rpi_bgp.Asn

type t

val empty : t

val add_as : t -> Asn.t -> t
(** Ensure the AS exists (isolated if no edges are added). *)

val add_p2c : t -> provider:Asn.t -> customer:Asn.t -> t
(** Add (or overwrite) a provider-to-customer edge.
    @raise Invalid_argument on a self-loop. *)

val add_p2p : t -> Asn.t -> Asn.t -> t
(** Add a peering edge. @raise Invalid_argument on a self-loop. *)

val add_s2s : t -> Asn.t -> Asn.t -> t
(** Add a sibling edge. @raise Invalid_argument on a self-loop. *)

val add_edge : t -> Asn.t -> Asn.t -> Relationship.t -> t
(** [add_edge g a b rel] records that [b] is a [rel] of [a] (and the
    inverse on [b]'s side). *)

val remove_edge : t -> Asn.t -> Asn.t -> t

val mem_as : t -> Asn.t -> bool
val mem_edge : t -> Asn.t -> Asn.t -> bool

val relationship : t -> Asn.t -> Asn.t -> Relationship.t option
(** [relationship g a b] is how [a] classifies neighbour [b]. *)

val neighbors : t -> Asn.t -> (Asn.t * Relationship.t) list
(** All neighbours of an AS with their relationship to it, in ascending
    AS-number order. *)

val customers : t -> Asn.t -> Asn.t list
val providers : t -> Asn.t -> Asn.t list
val peers : t -> Asn.t -> Asn.t list

val degree : t -> Asn.t -> int
val ases : t -> Asn.t list
val as_count : t -> int
val edge_count : t -> int

val is_multihomed : t -> Asn.t -> bool
(** More than one provider. *)

val is_stub : t -> Asn.t -> bool
(** No customers. *)

val fold_edges : (Asn.t -> Asn.t -> Relationship.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** Each undirected edge visited once as [(a, b, rel)] with [a < b], where
    [rel] is how [a] classifies [b] (same convention as {!relationship}). *)

val to_edges : t -> (Asn.t * Asn.t * Relationship.t) list
val of_edges : (Asn.t * Asn.t * Relationship.t) list -> t

val check_consistency : t -> (unit, string) result
(** Internal invariant check: every edge is recorded symmetrically with
    inverse labels. *)

val render_edges : t -> string
(** One line per edge: ["AS<a> AS<b> <relationship>"], where the
    relationship is how [a] classifies [b] and [a < b] — the format
    CAIDA-style relationship files use, and what {!parse_edges} reads. *)

val parse_edges : string -> (t, string) result
(** Parse the {!render_edges} format.  Blank lines and [#] comments are
    ignored; errors carry the line number. *)
