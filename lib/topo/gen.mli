(** Synthetic Internet topology generator.

    Builds an annotated AS graph with the structural features the paper's
    inference algorithms depend on: a fully meshed clique of transit-free
    Tier-1 ASs, a tiered provider hierarchy with preferential attachment
    (yielding a heavy-tailed degree distribution), configurable multihoming,
    and peering whose density decreases down the hierarchy.

    AS numbers are chosen to echo the paper's cast (AS1, AS7018, AS3549,
    AS1239, ... as Tier-1s; AS5511, AS7474, ... as Tier-2s) so experiment
    output reads like the paper's tables; remaining ASs are numbered from
    [first_dynamic_asn] upward. *)

module Asn = Rpi_bgp.Asn

type config = {
  n_tier1 : int;  (** Size of the transit-free clique. *)
  n_tier2 : int;  (** Large regional/national transit providers. *)
  n_tier3 : int;  (** Small transit providers. *)
  n_stub : int;  (** Edge ASs with no customers. *)
  multihoming_prob : float;  (** Probability a non-Tier-1 AS buys >1 upstream. *)
  max_providers : int;  (** Cap on providers per AS. *)
  tier2_peering_degree : float;  (** Mean peering edges per Tier-2 AS. *)
  tier3_peering_degree : float;  (** Mean peering edges per Tier-3 AS. *)
  sibling_pairs : int;  (** Number of sibling edges to plant. *)
  tier3_upstream_mix : float * float;
      (** (tier2, tier1): class each Tier-3 provider pick is drawn from. *)
  stub_upstream_mix : float * float * float;
      (** (tier3, tier2, tier1): class each stub provider pick is drawn
          from.  The Tier-1/Tier-2 shares produce the heavy degree skew of
          the measured Internet. *)
  tier12_peering_fraction : float;
      (** Fraction of the largest Tier-2s that peer with a few Tier-1s. *)
}

val default_config : config
(** ~1840 ASs: 10 Tier-1, 80 Tier-2, 350 Tier-3, 1400 stubs, 60%
    multihoming; stub attachment mixed across tiers so Tier-1 degrees
    dominate. *)

type t = {
  graph : As_graph.t;
  tier1 : Asn.t list;
  tier2 : Asn.t list;
  tier3 : Asn.t list;
  stubs : Asn.t list;
}

val tiers_ground_truth : t -> int Asn.Map.t
(** Tier labels as generated (the oracle {!Tier.classify} is scored
    against). *)

val validate : config -> (unit, string) result
(** Reject configurations the generator cannot honour: fewer than two
    Tier-1s, negative tier sizes or sibling targets, provider caps below
    1, upstream mixes that are negative or do not sum to 1, probabilities
    outside [0, 1], peering degrees that are negative or infinite (NaN
    fails every one of these), and — the
    scale guard — tier sizes whose dynamic AS
    numbering would run past the 32-bit ASN space above
    [first_dynamic_asn].  {!generate} calls this and raises
    [Invalid_argument] with the same message on [Error]. *)

val generate : ?config:config -> Rpi_prng.Prng.t -> t
(** Deterministic for a given generator state: every scenario, golden and
    benchmark world is a [(config, seed)] pair through this function, so a
    change to its draws moves all of them.  Provider picks are Fenwick-tree
    descents over degree + 1 per provider class, so generation is
    O((n + E) log n) and practical at 15k–100k ASs.  An AS that gets no
    provider (its upstream classes are empty) is left out of [graph] but
    stays in its tier list.
    @raise Invalid_argument when {!validate} rejects the config. *)

val scale_config : n:int -> config
(** A heavy-tailed configuration for approximately [n] total ASs
    (Tier-1 clique capped at 16, Tier-2 ~n/60, Tier-3 ~n/7, the rest
    stubs), keeping the default attachment mixes and peering densities.
    @raise Invalid_argument when [n < 64]. *)

val famous_tier1 : Asn.t list
(** The paper's Tier-1 cast, used for the first Tier-1 slots:
    AS1, AS7018, AS3549, AS1239, AS701, AS209, AS2914, AS3561, AS6453,
    AS6461. *)

val famous_tier2 : Asn.t list
(** Paper Tier-2/Looking-Glass cast: AS5511, AS7474, AS577, AS6539,
    AS6538, AS6762, AS3216, ... used for the first Tier-2 slots. *)

val first_dynamic_asn : int
(** AS numbers at and above this value are generated sequentially. *)
