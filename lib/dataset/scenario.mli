(** End-to-end synthetic dataset: the stand-in for "Oregon RouteView on
    Nov. 18, 2002, plus 15 Looking Glass servers".

    From one seed, builds: a synthetic Internet topology; per-AS import
    policies (typical preference with a configurable atypical minority and
    a prefix-granular override minority); per-AS prefix allocations grouped
    into announcement atoms with an export-policy mix (selective
    announcement, no-export-up communities, prefix splitting, provider
    aggregation, per-peer withholding); runs the propagation engine; and
    extracts a RouteViews-style collector table plus Looking-Glass tables
    for a set of vantage ASs. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module As_graph = Rpi_topo.As_graph
module Atom = Rpi_sim.Atom
module Policy = Rpi_sim.Policy
module Engine = Rpi_sim.Engine
module Decision = Rpi_sim.Decision

type config = {
  seed : int;
  topology : Rpi_topo.Gen.config;
  prefixes_per_tier : int * int * int * int;
      (** Max prefixes originated per AS for tiers 1/2/3/stub (each AS
          draws 1..max). *)
  p_selective : float;
      (** Multihomed AS originates its atoms to a proper provider subset. *)
  p_no_export_up : float;
      (** Given selective, use the community mechanism instead of simply
          not announcing (the paper's §5.1.5 ~21/79 split). *)
  p_split : float;  (** Multihomed AS performs prefix splitting (Case 1). *)
  p_aggregate : float;  (** Customer prefix aggregated by a provider (Case 2). *)
  p_peer_withhold : float;  (** An AS withholds its atoms from one peer. *)
  p_prepend : float;
      (** A multihomed, non-selective atom pads its AS path towards a
          provider subset instead (the milder inbound-TE tool). *)
  p_transit_selective : float;
      (** A multihomed transit AS re-exports customer routes to only a
          proper subset of its providers — the paper's intermediate-AS
          source of SA prefixes (it is what makes single-homed origins
          appear in Table 8). *)
  p_atypical_neighbor : float;
      (** Non-vantage AS carries one neighbour-wide preference override
          violating the typical order (kept rare; it perturbs routing the
          way the paper's unverifiable minority does). *)
  p_atypical_prefix : float;
      (** Per (vantage, atom): a prefix-granular override that violates the
          typical order — the source of Table 2's small atypical
          percentages. *)
  p_prefix_override : float;
      (** Per (vantage, atom): a prefix-granular local-pref override (not
          necessarily atypical) — the source of Fig. 2's ~2% non-next-hop
          assignments. *)
  n_collector_peers : int;  (** Feeds of the RouteViews-style collector. *)
  n_lg : int;  (** Looking-Glass vantage count. *)
  atoms_per_as : int;  (** Max atoms an AS splits its prefixes into. *)
}

val default_config : config
(** Seed 42, the default topology (1,840 ASs), and a policy mix tuned to
    land in the paper's reported ranges. *)

val small_config : config
(** A ~300-AS variant for tests and the persistence timeline. *)

type t = {
  config : config;
  topo : Rpi_topo.Gen.t;
  graph : As_graph.t;
  policies : Policy.t Asn.Map.t;
  atoms : Atom.t list;
  lp_overrides : (Asn.t * Asn.t * int) list Hashtbl.Make(Int).t;
      (** Atom id -> prefix-granular import overrides. *)
  transit_scopes : Asn.Set.t Asn.Map.t;
      (** Intermediate ASs restricting customer-route re-export, with the
          provider subset they announce to. *)
  network : Engine.network;
  decision : Decision.t;
      (** The decision process every propagation of this scenario uses. *)
  retain : Asn.Set.t;
  results : Engine.result list;
  collector_peers : Asn.t list;
  collector : Rib.t;  (** The RouteViews-style table. *)
  lg_ases : Asn.t list;
  lg_tables : (Asn.t * Rib.t) list;
}

val build : ?config:config -> ?decision:Decision.t -> unit -> t
(** Deterministic in [config.seed].  [decision] (default
    {!Decision.vanilla}) selects the decision process the engine runs the
    scenario under — e.g. {!Decision.neighbor_specific} rebuilds the same
    topology, policies and export specs under NS-BGP. *)

val policy_of : t -> Asn.t -> Policy.t
val lg_table : t -> Asn.t -> Rib.t option

val lp_override_quads : t -> (int * Asn.t * Asn.t * int) list
(** The drawn prefix-granularity overrides as {!Engine.prepare}
    [lp_overrides] quadruples [(atom_id, holder, neighbor, lp)] — lets a
    caller rebuild a network equivalent to this scenario's (e.g. the
    batch side of an incremental-repropagation differential test). *)

val import_of : t -> Asn.t -> Policy.import_policy
(** The import policy [Engine.prepare] was fed for this AS. *)

val transit_scope_of : t -> Asn.t -> Asn.Set.t option
(** The selective-transit provider scope, if this AS drew one. *)

val observed_paths : t -> Asn.t list list
(** All AS paths visible across collector and Looking-Glass tables, for
    relationship inference and path-activity checks. *)
