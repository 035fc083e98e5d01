(** Policy-aware BGP route propagation.

    For one announcement atom, computes the stable routing state of the
    whole AS graph under the configured import and export policies, and
    returns the tables (candidate routes + best route) of a chosen set of
    vantage ASs.

    The solver is an asynchronous-fixpoint worklist: an AS whose best route
    changes re-exports to its neighbours according to the standard
    relationship rules (customer routes to everyone; peer and provider
    routes only to customers and siblings) refined by the atom's export
    spec (selective provider scope, "no-export-up" community, per-peer
    withholding, aggregation suppression).  With preference policies that
    respect the Gao–Rexford conditions — which the generated scenarios do,
    up to the paper's small "atypical" minority — a unique stable state
    exists and the worklist converges quickly; a step cap guards against
    pathological dispute wheels. *)

module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship

type route = {
  path : Asn.t list;
      (** AS path as it would appear in this AS's table: announcing
          neighbour first, origin last; empty for the origin itself. *)
  path_len : int;
      (** [List.length path], maintained at construction so the decision
          comparator never walks the list. *)
  learned_from : Asn.t option;  (** [None] for the origin's own route. *)
  rel : Relationship.t option;
      (** How this AS classifies [learned_from]. *)
  export_class : Relationship.t option;
      (** Effective class driving the export rules; preserved across
          sibling hops so that a peer route relayed by a sibling cannot
          climb the hierarchy again ([None] for the origin's own route). *)
  lp : int;  (** Local preference assigned on import (0 for the origin). *)
  no_up : bool;  (** Route carries the "do not announce further up" tag. *)
}

type table = {
  candidates : route list;  (** All routes received, best first. *)
  best : route option;
}

type result = {
  atom : Atom.t;
  tables : table Asn.Map.t;  (** Only the ASs requested in [retain]. *)
  converged : bool;
  steps : int;  (** Worklist pops consumed. *)
}

type network
(** The AS graph frozen into an int-indexed CSR ({!Rpi_topo.Csr}) with
    import policies resolved into index-based arrays — built once,
    shared read-only by every per-atom propagation (including parallel
    fan-out across domains). *)

val prepare :
  graph:As_graph.t ->
  import:(Asn.t -> Policy.import_policy) ->
  ?transit_scope:(Asn.t -> Asn.Set.t option) ->
  ?lp_overrides:(int * Asn.t * Asn.t * int) list ->
  unit ->
  network
(** [transit_scope a]: when [Some set], AS [a] re-exports customer-learned
    routes only to the providers in [set] — selective announcement by an
    intermediate AS (the paper's second source of SA prefixes).  [None]
    (the default) re-exports to all providers.

    [lp_overrides]: [(atom_id, holder, neighbor, lp)] quadruples refining
    the holder's import policy for one atom (prefix-granularity local
    preference).  They are compiled into each AS's {!Policy.resolved}
    lookup here, once, instead of being threaded through every propagate
    call; entries naming an unknown holder are ignored. *)

val propagate :
  network -> retain:Asn.Set.t -> ?decision:Decision.t -> Atom.t -> result
(** [decision] (default {!Decision.vanilla}) supplies the decision
    process.  Every decision process, and {!repropagate}, runs the same
    solver: a worklist fixpoint seeded at the origin.  For the name
    ["vanilla"] it calls the Gao–Rexford comparator directly and inlines
    the export rule instead of going through the module.

    The solver runs on interned paths and flat per-AS candidate arenas
    (integer AS indices, path ids with memoized length); the [result] is
    converted back to the list-of-routes representation only for the
    retained ASs.  The intern table is private to the call, so concurrent
    propagations share nothing.
    @raise Invalid_argument when the atom's origin is not in the graph. *)

val propagate_reference : network -> retain:Asn.Set.t -> Atom.t -> result
(** The direct list-of-routes solver {!propagate} is checked against: same
    worklist order, same decisions, byte-identical results (the rpicheck
    properties [interned_engine_matches_reference] and
    [decision_vanilla_matches_reference] pin this down).  Slower; exists
    for differential testing only. *)

val propagate_all :
  network ->
  retain:Asn.Set.t ->
  ?decision:Decision.t ->
  ?jobs:int ->
  Atom.t list ->
  result list
(** One propagation per atom, with the solver's arena (candidate rows,
    intern table, worklist) allocated once per worker and reset between
    atoms.  [jobs > 1] fans the atoms out over that many domains (the
    calling domain included) on the shared pool discipline: atoms are
    claimed in ~[4*jobs] contiguous chunks so per-task dispatch
    amortizes, each worker reuses its own arena, and results are merged
    in declaration order — the output is byte-identical for every job
    count and chunking.  Default 1 (no spawns). *)

val iter_propagated :
  network ->
  retain:Asn.Set.t ->
  ?decision:Decision.t ->
  Atom.t list ->
  f:(result -> unit) ->
  unit
(** Streaming variant of {!propagate_all} (sequential): calls [f] on
    each atom's result in declaration order, holding only one result
    live at a time.  At 15k+ ASes this is what keeps collector / Looking
    Glass table extraction from materializing every per-atom result
    list at once — fold the vantage tables inside [f] (see
    {!Vantage.extend_collector_rib}) and drop the rest. *)

(** {2 Incremental re-propagation}

    A prepared network fixes the link universe and the candidate-arena
    geometry; an incremental {!state} owns a mutable copy of its
    configuration overlay (per-slot activity, relationships, import
    preferences, compiled policies) plus one live candidate arena per
    announced atom.  {!repropagate} applies a batch of {!Delta.t}s,
    seeds each touched atom's worklist from the senders over touched
    adjacencies (the dirty-cone frontier) and re-runs {!propagate}'s
    solver on the state's overlay, re-solving only what the wavefront
    reaches — untouched atoms are skipped outright.

    Under the Gao–Rexford conditions the stable state is unique, so the
    re-solved state matches a fresh {!propagate} on the equivalently
    modified network byte-for-byte (candidate order included); the
    rpicheck properties [repropagate_matches_batch],
    [repropagate_idempotent_on_noop] and
    [repropagate_commutes_with_coalescing] pin this down for both shipped
    decision processes. *)

module Delta : sig
  type t =
    | Link_down of Asn.t * Asn.t
        (** Mask a prepared link (both directions).  Downing an
            already-down link is a no-op. *)
    | Link_up of Asn.t * Asn.t
        (** Revive a masked link with its current labels.  Only links
            present in the prepared graph can come up. *)
    | Rel_set of Asn.t * Asn.t * Relationship.t
        (** [(a, b, rel)]: [a] now classifies [b] as [rel] (inverse label
            implied on [b]'s side).  Applies whether the link is up or
            down. *)
    | Lp_set of { atom_id : int; holder : Asn.t; neighbor : Asn.t; lp : int }
        (** Set (or replace) the holder's per-(neighbour, atom) import
            preference — the incremental form of a prepare-time
            [lp_overrides] quadruple; an unknown holder is dropped the
            same way. *)
    | Announce of Atom.t
        (** Start (or restart) propagating the atom.  Re-announcing a
            structurally unchanged atom ({!Atom.equal}) is a no-op; a
            changed atom with the same id is re-solved from scratch. *)
    | Withdraw of int  (** Stop propagating the atom with this id. *)

  val coalesce : t list -> t list
  (** Collapse deltas writing the same configuration cell to the last
      write, keeping first-occurrence order: link up/down per link,
      relationship per link, lp override per (atom, holder, neighbour)
      triple, announce/withdraw per atom id.  Applying a list and
      applying its coalesced form yield identical states. *)

  val render : t -> string

  val of_event : atom_of:(int -> Atom.t) -> Rpi_topo.Churn.event -> t
  (** Lift a churn-stream event; [atom_of] supplies the atom record for
      [Announce] ids (the churn generator only deals in ids). *)
end

type state
(** Live incremental solver state over one prepared network. *)

val init_state : ?decision:Decision.t -> network -> state
(** Fresh state: every link up with its prepared labels, no atoms
    announced.  [decision] (default {!Decision.vanilla}) fixes the
    decision process for the state's lifetime. *)

val repropagate : network -> state -> Delta.t list -> state
(** Apply the deltas to the overlay and re-solve the affected cone of
    every touched atom in place; returns the same (mutated) state for
    chaining.  [network] must be the state's own prepared network.
    @raise Invalid_argument on a foreign network, on a link delta naming
    an AS or link outside the prepared graph, or on announcing an atom
    whose origin is not in the graph. *)

val changed_atoms : state -> int list
(** The ids, ascending, of the atoms whose tables the latest
    {!repropagate} may have changed: every atom one of whose slots a
    solve wrote, every atom announced afresh or withdrawn, and every atom
    occupying a slot a [Rel_set] relabelled.  The list may name an atom
    whose tables came out equal, but never misses one that changed
    (growth in [steps] alone is not a change).  Empty on a fresh state.
    The rpicheck property [repropagate_reports_changes] pins this down
    at every AS, for both shipped decision processes. *)

val state_result : state -> retain:Asn.Set.t -> int -> result option
(** The announced atom with this id, as {!state_results} would list it;
    [None] when no such atom is announced. *)

val state_results : state -> retain:Asn.Set.t -> result list
(** One result per announced atom, in atom-id order, against the current
    overlay.  [steps] accumulates worklist pops over the atom's lifetime;
    [converged] reports the atom's most recent solve. *)

val state_atoms : state -> Atom.t list
(** The announced atoms, in atom-id order. *)

val state_graph : state -> As_graph.t
(** The effective graph under the overlay: prepared links that are up,
    with their current relationship labels; ASs isolated by link masking
    are kept.  A fresh {!prepare} over this graph (plus the accumulated
    lp overrides) is the batch equivalent of the state. *)

val best_at : result -> Asn.t -> route option
(** Best route of a retained AS ([None] when unreachable or not retained). *)
