(** Announcement atoms: a group of prefixes originated by one AS under one
    export behaviour.

    All prefixes of an atom follow identical AS-level paths (the "policy
    atoms" of Afek et al. that the paper relates its findings to), so route
    propagation runs once per atom rather than once per prefix. *)

module Asn = Rpi_bgp.Asn
module Prefix = Rpi_net.Prefix

type provider_scope =
  | All_providers  (** Announce to every direct provider. *)
  | Only_providers of Asn.Set.t
      (** Selective announcement: this subset of direct providers only. *)

type t = {
  id : int;  (** Unique within a scenario. *)
  origin : Asn.t;
  prefixes : Prefix.t list;
  provider_scope : provider_scope;
  no_export_up : Asn.Set.t;
      (** Direct providers that receive the atom tagged "do not announce
          further up" (community-driven selective announcement). *)
  withhold_peers : Asn.Set.t;  (** Direct peers that do not receive it. *)
  suppressed_at : Asn.Set.t;
      (** ASs that accept the atom but never re-export it (providers
          aggregating customer space — Case 2 of Section 5.1.5). *)
  prepend_to : (Asn.t * int) list;
      (** AS-path prepending for inbound traffic engineering: towards each
          listed direct neighbour the origin inserts that many extra
          copies of itself (the softer alternative to selective
          announcement that the paper's Section 2.2.2 lists). *)
}

val vanilla : id:int -> origin:Asn.t -> Prefix.t list -> t
(** Announce everywhere, no restrictions. *)

val make :
  id:int ->
  origin:Asn.t ->
  ?provider_scope:provider_scope ->
  ?no_export_up:Asn.Set.t ->
  ?withhold_peers:Asn.Set.t ->
  ?suppressed_at:Asn.Set.t ->
  ?prepend_to:(Asn.t * int) list ->
  Prefix.t list ->
  t

val prepend_count : t -> neighbor:Asn.t -> int
(** Extra copies of the origin inserted towards that neighbour (0 when
    none configured). *)

val equal : t -> t -> bool
(** Structural equality of the whole export spec (id, origin, prefixes in
    order, provider scope, community sets, prepending) — what the timeline
    differ uses to decide that an atom's announcement changed. *)

val is_selective : t -> bool
(** True when the export spec restricts propagation towards providers
    (subset scope or a community tag) — the ground-truth notion of
    "selective announcement". *)

val origin_groups : t list -> (Asn.t * Prefix.t list) list
(** Prefixes grouped by originating AS, sorted by origin, each group's
    prefixes in atom-list order — the ground-truth counterpart of
    {!Rpi_core.Export_infer.origins_of_rib}. *)
