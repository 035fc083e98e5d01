(** The single definition of how a BGP update stream mutates a vantage's
    Adj-RIB-In, plus the codecs that make streams storable and diffable.

    Every consumer — {!State}, the from-scratch batch recompute the
    property harness checks it against, and the daemon's replay loop —
    folds updates through {!apply}, so all of them see byte-identical rib
    evolution.

    Locally originated routes (no [peer_as]) cannot be expressed by a
    plain neighbour update; the stream encodes them as updates whose
    [from_as] {e is} the vantage: such an announce inserts its route
    untouched, such a withdraw drops the local candidates
    ({!Rpi_bgp.Rib.withdraw_local}). *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Update = Rpi_bgp.Update

val apply : vantage:Asn.t -> Update.t -> Rib.t -> Rib.t
(** Fold one update into the vantage's table.  Updates from the vantage
    itself are local-route operations (see above); all others go through
    {!Rpi_bgp.Update.apply} (loop check, [peer_as] stamping).  Duplicate
    announces replace the same-session candidate and spurious withdraws
    find nothing to drop — both are no-ops on the resulting table. *)

val apply_all : vantage:Asn.t -> Update.t list -> Rib.t -> Rib.t

val diff : vantage:Asn.t -> old_rib:Rib.t -> Rib.t -> Update.t list
(** The update stream that turns [old_rib] into the new table when folded
    through {!apply}: per prefix (ascending), withdraws for vanished
    sessions, then announces for new or changed routes (sorted by
    {!Rpi_bgp.Route.compare}).  A change to the local-candidate set is one
    local withdraw plus re-announces, mirroring [withdraw_local]'s
    all-at-once semantics.  Deterministic: equal inputs yield equal
    streams. *)

val render_stream : Update.t list -> string
(** NDJSON, one update per line (the daemon's replay-file format). *)

val parse_stream : string -> (Update.t list, string) result
(** Inverse of {!render_stream}; blank lines are skipped, the first
    malformed line fails the parse with its line number. *)
