(** Verification of SA prefixes (Section 5.1.3, Table 7).

    An SA-prefix inference rests on two relationship claims: the origin is
    a customer of the provider (via some customer path), and the best
    route's next hop is a peer/provider of the provider.  Step 2 of the
    paper's verification checks that the customer path is *active*: some
    observed AS path in the tables traverses the same provider-to-customer
    chain, which — given the export rules — certifies every link of the
    chain as provider-to-customer. *)

module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph

type path_index
(** All AS-level adjacent pairs (and sub-paths) observed across a set of
    tables, indexed for containment queries. *)

val index_paths : Asn.t list list -> path_index
(** Build the index from observed paths (receiver first). *)

val observed_paths_of_rib : vantage:Asn.t -> Rpi_bgp.Rib.t -> Asn.t list list
(** Every candidate route's AS path, prepended with the vantage AS. *)

val pair_observed : path_index -> Asn.t -> Asn.t -> bool
(** Was the (a, b) adjacency seen in that order in any path? *)

val chain_active : path_index -> Asn.t list -> bool
(** Every consecutive pair of the chain was observed in order (the chain is
    carried by announced prefixes). *)

type verdict =
  | Verified_direct  (** The origin is a direct customer: step 1 covers it. *)
  | Verified_active_path  (** An active customer path certifies the chain. *)
  | Unverified  (** No active chain found. *)

val verify_record :
  As_graph.t -> path_index -> provider:Asn.t -> Export_infer.sa_record -> verdict

type report = {
  provider : Asn.t;
  total : int;
  verified : int;
  pct_verified : float;
  by_verdict : (verdict * int) list;
}

val verify : As_graph.t -> path_index -> provider:Asn.t -> Export_infer.sa_record list -> report
