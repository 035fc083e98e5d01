(** A BGP routing table (RIB) snapshot: for every prefix, the candidate
    routes received from neighbours and the best route per the decision
    process.  This is the "BGP table from the viewpoint of AS u" object that
    all of the paper's inference algorithms consume. *)

type t

val empty : t

val add_route : Route.t -> t -> t
(** Insert a candidate route.  A route replaces an existing candidate with
    the same (peer_as, router_id) for that prefix — one route per session,
    as in a real Adj-RIB-In. *)

val remove_routes : Rpi_net.Prefix.t -> t -> t
(** Drop all candidates for a prefix. *)

val withdraw : peer_as:Asn.t -> Rpi_net.Prefix.t -> t -> t
(** Drop the candidate learned from the given neighbour. *)

val withdraw_local : Rpi_net.Prefix.t -> t -> t
(** Drop locally-originated candidates (no [peer_as]) for the prefix —
    the withdraw counterpart of inserting an own-prefix route, which
    [withdraw] cannot reach because it matches a neighbour AS. *)

val equal : t -> t -> bool
(** Same candidate set per prefix, ignoring candidate-list order (which
    is arrival order and differs across withdraw/re-announce histories). *)

val of_routes : Route.t list -> t
(** [List.fold_left (fun t r -> add_route r t) empty routes], with one
    trie update per run of consecutive routes for the same prefix — the
    order both table formats list them in. *)

val candidates : t -> Rpi_net.Prefix.t -> Route.t list

val best : ?config:Decision.config -> t -> Rpi_net.Prefix.t -> Route.t option
(** Best route for the prefix per {!Decision.select_best}. *)

val prefixes : t -> Rpi_net.Prefix.t list
val prefix_count : t -> int
val route_count : t -> int

val fold : (Rpi_net.Prefix.t -> Route.t list -> 'acc -> 'acc) -> t -> 'acc -> 'acc
val iter : (Rpi_net.Prefix.t -> Route.t list -> unit) -> t -> unit

val best_routes : ?config:Decision.config -> t -> Route.t list
(** The loc-RIB: one best route per prefix, in prefix order. *)

val all_routes : t -> Route.t list
(** Every candidate (the full table with backup paths), prefix order. *)

val longest_match : t -> Rpi_net.Ipv4.t -> (Rpi_net.Prefix.t * Route.t list) option

type diff = {
  added : Rpi_net.Prefix.t list;  (** Prefixes only in the newer table. *)
  removed : Rpi_net.Prefix.t list;  (** Prefixes only in the older table. *)
  best_changed : (Rpi_net.Prefix.t * Route.t option * Route.t option) list;
      (** Prefixes whose best route's next-hop AS differs:
          [(prefix, old_best, new_best)]. *)
  unchanged : int;
}

val diff : ?config:Decision.config -> old_rib:t -> t -> diff
(** Snapshot delta, the unit of the paper's day-over-day persistence
    study: what appeared, what vanished, what re-routed. *)
