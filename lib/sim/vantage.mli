(** Extraction of observable BGP tables from propagation results.

    Produces the two kinds of dataset the paper uses: Looking-Glass style
    tables (the full RIB of one AS, with local preference and the AS's
    community tags) and a RouteViews-style collector table (the best routes
    of every feeding peer, without local preference). *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Ipv4 = Rpi_net.Ipv4

val rib_at : policy:Policy.t -> vantage:Asn.t -> Engine.result list -> Rib.t
(** The Looking-Glass view of [vantage]: every candidate route it received,
    for every prefix of every atom, with local preference as assigned by
    its import policy and communities tagged per its community scheme.
    Routes the AS originates itself appear as [Local] routes. *)

val collector_rib : peers:Asn.t list -> Engine.result list -> Rib.t
(** RouteViews-style table: for each feeding peer, its best route per
    prefix (AS path prepended with the peer itself), no local preference.
    Origin-tagged "no-export-up" communities stay visible, as transitive
    communities do in practice. *)

val extend_collector_rib : peers:Asn.t list -> Rib.t -> Engine.result list -> Rib.t
(** {!collector_rib} folded onto an existing table — the streaming form:
    feed it one result at a time from {!Engine.iter_propagated} and the
    collector table builds up without every per-atom result being live
    at once (the way paper-scale runs must do it). *)

val router_views :
  policy:Policy.t -> vantage:Asn.t -> routers:int -> Engine.result list -> Rib.t list
(** Per-router views of one AS (the paper's 30 AT&T backbone routers):
    identical AS-level candidates and local preferences, but per-router IGP
    metrics, so routers may pick different equally-preferred exits. *)

(** {2 Watches}

    One observed table kept in step with an incremental engine state —
    how the persistence experiments (Figs. 6–7), the daemon's replay and
    the churn experiment follow a table epoch by epoch. *)

type view =
  | Collector of Asn.t list  (** {!collector_rib} over these peers. *)
  | Looking_glass of { policy : Policy.t; vantage : Asn.t }
      (** {!rib_at} of one AS under its policy. *)

type watch
(** An engine state, the view's table, and the prefixes each announced
    atom last carried (the only prefixes its routes can occupy). *)

val watch : decision:Decision.t -> Engine.network -> view -> watch
(** A fresh {!Engine.init_state} over the network under [decision],
    nothing announced, an empty table. *)

val advance : watch -> Engine.Delta.t list -> unit
(** {!Engine.repropagate} the deltas, then drop the prefixes of every
    atom in {!Engine.changed_atoms} and rebuild them from its new result,
    retained at the view's own ASs only.  With prefixes unique across
    atoms, the table equals the batch {!collector_rib} / {!rib_at} over
    {!Engine.state_results}, route for route. *)

val table : watch -> Rib.t
(** The current table (a persistent value). *)

val state : watch -> Engine.state
(** The watched state, for its graph and atoms; change it only through
    {!advance}. *)
