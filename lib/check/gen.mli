(** Random-value generators for the property harness: BGP routes, tables,
    RPSL registries, JSON trees, experiment outcomes, raw junk text, and a
    pocket-sized end-to-end scenario configuration.

    Everything draws from a {!Rpi_prng.Prng.t}, so a value is a pure
    function of the generator state — the harness can regenerate any case
    from its seed. *)

module Prng = Rpi_prng.Prng

val asn : Prng.t -> Rpi_bgp.Asn.t
val prefix : Prng.t -> Rpi_net.Prefix.t

val rib : Prng.t -> Rpi_bgp.Rib.t
(** 1–12 prefixes, 1–4 candidate routes each. *)

val tables : Prng.t -> (Rpi_bgp.Asn.t * Rpi_bgp.Rib.t) list
(** 1–4 vantages with distinct AS numbers, for snapshot round-trips. *)

val registry : Prng.t -> Rpi_irr.Rpsl.aut_num list

val json : Prng.t -> Rpi_json.t
(** Depth-bounded tree over every constructor; floats are always finite
    (NaN/infinities serialize to [null] by design and cannot round-trip). *)

val outcome : Prng.t -> Rpi_experiments.Exp.outcome
(** A synthetic experiment outcome with adversarial strings (quotes,
    control bytes, UTF-8) in ids, metric names and table cells. *)

val junk_text : Prng.t -> string
(** A few lines of hostile bytes for format detection: pipe characters,
    format keywords, long lines, control characters, NULs. *)

val pocket_config : seed:int -> Rpi_dataset.Scenario.config
(** A deliberately tiny scenario (~100 ASs) the metamorphic oracles can
    afford to build once per run and query hundreds of times. *)
