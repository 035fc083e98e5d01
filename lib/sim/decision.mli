(** Pluggable decision processes over the engine's interned candidate
    arena.

    The solver in {!Engine} separates BGP {e mechanics} (worklist
    scheduling, loop rejection, the atom's export spec, import-preference
    resolution) from the {e decision process} (which candidate an AS
    prefers, which routes it is willing to export over an edge).  A
    decision process is a first-class module over the flat
    struct-of-arrays arena the solver already runs on — integer slots,
    interned path ids, packed class bits — so pluggability costs zero
    allocation on the hot path.

    {2 Arena contract}

    A {!ctx} is a read-only window onto the solver's live state.  Modules
    may rely on:

    - a slot [s >= 0] passed to {!S.prefer} or {!S.export_ok} is
      {e occupied}: [dc_meta.(s) >= 0];
    - [dc_meta.(s) land 7] is the export-class code ({!class_code}) and
      [dc_meta.(s) land 8] the "no export up" tag;
    - [dc_path.(s)] is an id valid in [dc_intern], [dc_len.(s)] its
      memoized length, [dc_lp.(s)] the import local preference,
      [dc_sender_asn.(s)] the announcing neighbour's AS number;
    - distinct slots offered to one [prefer] call have distinct senders.

    Modules must {e not} mutate the arrays or retain the [ctx] beyond the
    call: the solver rewrites slots in place between calls.  rpilint's
    [engine-internals] check flags construction of {!ctx} outside
    [lib/sim]. *)

module Asn = Rpi_bgp.Asn
module Path_intern = Rpi_bgp.Path_intern
module Relationship = Rpi_topo.Relationship

(** {1 Export-class codes}

    The arena stores a candidate's effective export class as a small int
    so change detection and export filtering are scalar compares. *)

val class_none : int
(** The origin's own route (no announcing neighbour). *)

val class_customer : int

val class_peer : int
val class_provider : int
val class_sibling : int

val class_code : Relationship.t option -> int
val class_decode : int -> Relationship.t option

type ctx = {
  dc_intern : Path_intern.t;  (** This propagation run's path table. *)
  dc_meta : int array;
      (** Per slot: -1 when empty, else [class lor (no_up lsl 3)]. *)
  dc_path : Path_intern.id array;  (** Interned path id per slot. *)
  dc_len : int array;  (** Memoized path length per slot. *)
  dc_lp : int array;  (** Import local preference per slot. *)
  dc_sender_asn : int array;
      (** AS number of the slot's announcing neighbour (static). *)
}

type granularity =
  | Per_as
      (** One best route per AS, exported (subject to {!S.export_ok}) to
          every neighbour — classic BGP. *)
  | Per_neighbor
      (** One best route per (AS, neighbour): each edge carries the most
          preferred candidate exportable over it — NS-BGP
          (Wang–Schapira–Rexford).  The engine stores no per-edge
          selection: every visit re-derives each edge's choice from the
          candidate arena, so memory is the same as under [Per_as]. *)

module type S = sig
  val name : string
  (** Stable identifier.  ["vanilla"] claims that [prefer] and
      [export_ok] are {!Vanilla}'s: the engine's solver then calls
      {!Vanilla}'s comparator directly and inlines the export rule
      instead of going through the module (see {!is_vanilla}). *)

  val granularity : granularity

  val prefer : ctx -> int -> int -> int
  (** [prefer ctx a b < 0] when slot [a]'s candidate is preferred over
      slot [b]'s.  Must be a total order on the occupied slots of one
      receiver (distinct slots have distinct senders, so a sender-ASN
      tie-break suffices). *)

  val export_ok : ctx -> rel:Relationship.t -> int -> bool
  (** May the holder announce the candidate in the given slot to a
      neighbour it classifies as [rel]?  Slot [-1] stands for the
      origin's own (path-less, class-free) route.  Only policy gets
      decided here; mechanics (loop rejection, the atom's export spec,
      aggregation suppression, transit scope) stay with the engine.
      Must be a pure function of the slot's contents and [rel]: under
      [Per_as] the engine calls it once per relationship class when an
      AS's best changes and reuses the answers for all its edges. *)
end

type t = (module S)

val vanilla : t
(** Gao–Rexford: higher local preference, then shorter path, then
    deterministic tie-breaks; customer routes export everywhere, peer and
    provider routes only downhill.  The scheme the byte-identity goldens
    pin. *)

val neighbor_specific : t
(** NS-BGP: the same preference and export rules evaluated per (AS,
    neighbour).  Converges on dispute-wheel gadgets where {!vanilla}
    oscillates into the step cap. *)

val is_vanilla : t -> bool
(** By {!S.name}.  A module keeping the name ["vanilla"] claims its
    [prefer] and [export_ok] equal {!Vanilla}'s, so the solver may
    specialise on it: the same loop, with a direct comparator call and
    the export rule inlined.  Any other name runs the same loop through
    the module's functions — byte-identical for a renamed copy of {!Vanilla}, which
    the rpicheck property [decision_vanilla_matches_reference] pins. *)

module Vanilla : S
(** The vanilla rules as a reusable building block: custom modules can
    delegate [prefer]/[export_ok] and change only one axis. *)
