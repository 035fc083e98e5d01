(** The oracle: what the scenario actually configured, for scoring the
    inference algorithms against.

    The paper can only sample-verify its inferences (Tables 4 and 7); the
    synthetic dataset knows the full truth, so every experiment can also
    report an exact accuracy. *)

module Asn = Rpi_bgp.Asn
module Prefix = Rpi_net.Prefix
module Atom = Rpi_sim.Atom

type cause =
  | Plain  (** Announced everywhere. *)
  | Selective_subset  (** Exported to a proper subset of providers. *)
  | Selective_no_export  (** Exported with the "no-export-up" community. *)
  | Aggregated  (** Swallowed by a provider's aggregate. *)

val cause_of_atom : Atom.t -> cause

val atom_of_prefix : Scenario.t -> Prefix.t -> Atom.t option

val selective_atom_count : Scenario.t -> int

val expected_sa : Scenario.t -> provider:Asn.t -> Prefix.t -> bool option
(** Straight from the engine: did the provider's best route for the prefix
    arrive via a peer or provider?  [None] when the provider is not in the
    retain set or holds no route. *)

val scheme_truth : Scenario.t -> Asn.t -> Rpi_sim.Policy.community_scheme option
