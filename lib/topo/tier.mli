(** Tier classification of ASs in the provider hierarchy, after
    Subramanian et al. (INFOCOM 2002), which the paper uses to label
    Tier-1/2/3 ASs.

    Tier 1 ASs are transit-free (no providers); every other AS sits one
    level below its highest-tier provider: tier(a) = 1 + min over providers
    of tier. *)

module Asn = Rpi_bgp.Asn

val classify : As_graph.t -> int Asn.Map.t
(** Tier for every AS in the graph.  Provider cycles (possible in inferred
    graphs) are broken by assigning the cycle the tier implied by its
    acyclic provider ancestors, or tier 1 when it has none. *)

val tier1_ases : As_graph.t -> Asn.t list
(** ASs with no providers, ascending. *)

val histogram : int Asn.Map.t -> (int * int) list
(** [(tier, count)] pairs, ascending tier. *)
