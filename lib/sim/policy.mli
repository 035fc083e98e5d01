(** Per-AS routing-policy configuration consumed by the simulator.

    Import policy fixes the local preference an AS assigns to a route by
    the class of the announcing neighbour, with optional per-neighbour and
    per-(neighbour, atom) overrides — the three granularities the paper
    observes (class-wide, next-hop-AS-based, prefix-based).

    A community scheme describes how an AS tags routes with the
    relationship of the announcing neighbour (the convention the paper's
    Appendix exploits for verification, cf. Table 11). *)

module Asn = Rpi_bgp.Asn
module Relationship = Rpi_topo.Relationship
module Community = Rpi_bgp.Community

type import_policy = {
  lp_customer : int;
  lp_sibling : int;
  lp_peer : int;
  lp_provider : int;
  lp_neighbor : int Asn.Map.t;  (** Per-neighbour override of the class value. *)
  lp_atom : (Asn.t * int * int) list;
      (** Per-(neighbour, atom id) override — the "prefix-based" minority.
          Triples [(neighbor, atom_id, lp)]. *)
}

val default_import : import_policy
(** Typical preference: customer 110, sibling 105, peer 100, provider 90. *)

val static_pref : import_policy -> neighbor:Asn.t -> rel:Relationship.t -> int
(** The atom-independent preference: neighbour override, then class
    value. *)

type resolved
(** An {!import_policy} with every per-(neighbour, atom) override —
    [lp_atom] entries and externally supplied engine overrides — compiled
    into one hashed lookup.  Built once in [Engine.prepare], queried per
    import. *)

val compile : ?overrides:(Asn.t * int * int) list -> import_policy -> resolved
(** [overrides] are external [(neighbor, atom_id, lp)] entries (the
    engine's historical [?lp_overrides] channel); they take precedence
    over the policy's own [lp_atom] entries for the same (neighbour,
    atom) key.  Among duplicate external entries the last wins; among
    duplicate [lp_atom] entries the first wins — both matching the
    behaviour of the mechanisms they replace. *)

val resolve : resolved -> neighbor:Asn.t -> rel:Relationship.t -> atom:int -> int
(** Resolution order: compiled (neighbour, atom) override, then neighbour
    override, then class value. *)

val resolve_static : resolved -> neighbor:Asn.t -> rel:Relationship.t -> int
(** {!resolve} minus the per-atom layer — exact for policies where
    {!is_dynamic} is false. *)

val is_dynamic : resolved -> bool
(** Whether any (neighbour, atom) override exists, i.e. {!resolve} can
    disagree with {!resolve_static}. *)

val copy_resolved : resolved -> resolved
(** A deep copy whose override table is independent of the original —
    {!override_resolved} on the copy never disturbs the source.  Used by
    the incremental engine, whose state owns its policy layer. *)

val override_resolved : resolved -> neighbor:Asn.t -> atom:int -> lp:int -> unit
(** Set (or replace) the per-(neighbour, atom) override in place.
    Equivalent to re-running {!compile} with the entry appended to
    [overrides]: the new value wins over both earlier external entries and
    [lp_atom] entries for the same key. *)

val is_typical_classes : import_policy -> bool
(** Class values respect customer > peer > provider (the paper's "typical
    local preference"), ignoring overrides. *)

type community_scheme = {
  customer_codes : int list;  (** 16-bit code values tagging customer routes. *)
  peer_codes : int list;
  provider_codes : int list;
}

val default_scheme : community_scheme
(** Single-value scheme in the style of Table 11: customers 4000, peers
    1000, providers 2000. *)

val multi_scheme : community_scheme
(** Several values per class (like AS12859's 1000/1010/1020 for peers). *)

val tag : community_scheme -> self:Asn.t -> neighbor:Asn.t -> Relationship.t -> Community.t option
(** The community the AS attaches to routes from this neighbour; the code
    within a class is chosen deterministically by the neighbour's number.
    Sibling routes are not tagged. *)

val code_class : community_scheme -> int -> Relationship.t option
(** Reverse lookup: which relationship class does a code belong to?  Ranges
    are interpreted as half-open bands between the smallest codes of each
    class, mirroring how the paper groups "same" community values. *)

val no_reexport_code : int
(** The 16-bit code (65000) conventionally meaning "do not announce this
    route further up"; attached with the origin's AS number. *)

type t = {
  asn : Asn.t;
  import : import_policy;
  scheme : community_scheme option;
}

val default : Asn.t -> t
