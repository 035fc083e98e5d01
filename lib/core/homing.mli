(** Multihoming of the ASs behind SA prefixes (Section 5.1.5, Table 8): an
    origin with several providers can itself announce selectively; a
    single-homed origin's SA prefixes implicate a multihomed intermediate
    ({!Sa_causes} tells the two apart by Fig. 8's path test). *)

module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph

type report = {
  provider : Asn.t;
  multihomed : int;  (** Distinct SA-prefix origins with > 1 provider. *)
  single_homed : int;
  pct_multihomed : float;
}

val analyze : As_graph.t -> provider:Asn.t -> Export_infer.sa_record list -> report
