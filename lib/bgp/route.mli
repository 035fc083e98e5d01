(** A BGP route: one prefix plus the attributes the decision process and the
    policy-inference algorithms consume. *)

type origin =
  | Igp  (** Originated by an IGP ("i" in show ip bgp). *)
  | Egp  (** Legacy EGP origin ("e"). *)
  | Incomplete  (** Redistributed ("?"). *)

type source =
  | Ebgp  (** Learned from an external peer. *)
  | Ibgp  (** Learned from an internal peer. *)
  | Local  (** Originated by this router. *)

type t = {
  prefix : Rpi_net.Prefix.t;
  next_hop : Rpi_net.Ipv4.t;
  as_path : As_path.t;
  origin : origin;
  local_pref : int option;  (** [None] means the default (100) applies. *)
  med : int option;
  communities : Community.Set.t;
  source : source;
  igp_metric : int;  (** Distance to the egress border router. *)
  router_id : Rpi_net.Ipv4.t;  (** Advertising router's ID (final tie-break). *)
  peer_as : Asn.t option;  (** Neighbouring AS the route came from. *)
}

val make :
  prefix:Rpi_net.Prefix.t ->
  next_hop:Rpi_net.Ipv4.t ->
  as_path:As_path.t ->
  ?origin:origin ->
  ?local_pref:int ->
  ?med:int ->
  ?communities:Community.Set.t ->
  ?source:source ->
  ?igp_metric:int ->
  ?router_id:Rpi_net.Ipv4.t ->
  ?peer_as:Asn.t ->
  unit ->
  t

val effective_local_pref : t -> int
(** [local_pref] or the default when unset. *)

val effective_med : t -> int
(** MED, treating absence as 0 (the common "missing-as-best" convention). *)

val next_hop_as : t -> Asn.t option
(** First AS of the path — the neighbour through which the route arrived.
    Falls back to [peer_as] for an empty path. *)

val origin_as : t -> Asn.t option
(** Last AS of the path; for locally originated routes, [None]. *)

val origin_rank : origin -> int
(** Declaration-order rank (Igp < Egp < Incomplete) — the explicit total
    order {!compare} uses; the decision process ranks separately in
    [Decision]. *)

val origin_to_string : origin -> string
(** ["i"], ["e"] or ["?"]. *)

val origin_of_substring : string -> pos:int -> len:int -> (origin, string) result
(** Read ["i"]/["IGP"], ["e"]/["EGP"] or ["?"]/["incomplete"] from the
    [len] bytes of a string at [pos]. *)

val origin_of_string : string -> (origin, string) result
(** {!origin_of_substring} over the whole string. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order for sorts and dedup, field by field: prefix, path, next
    hop, origin, local pref, MED, communities, source, IGP metric, router
    ID, peer AS.  Allocates nothing for routes without communities. *)
