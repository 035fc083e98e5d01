(** The set of live {!Rpi_ingest.State}s a server answers from — one
    collector-table state (for [stats] and [snapshot]) plus one state per
    served vantage — paired with a read-mostly {e snapshot}: an immutable
    value holding every rendered report and table the query path needs,
    swapped atomically by {!publish}.

    Queries load the snapshot with one [Atomic.get] and never touch a
    state mutex, so ingestion ([State.apply]) never blocks on readers and
    readers never observe a half-applied epoch: every field of a response
    comes from the same published generation.  The ingestion side calls
    {!publish} when it wants new data visible (the replay loop does so
    once per epoch). *)

module Asn = Rpi_bgp.Asn
module State = Rpi_ingest.State

type snapshot
(** One immutable published generation. *)

type t = {
  collector : State.t;
  vantages : (Asn.t * State.t) list;
  snap : snapshot Atomic.t;
}

val create : collector:State.t -> vantages:(Asn.t * State.t) list -> t
(** Publishes generation 0 from the states' current contents. *)

val find : t -> Asn.t -> State.t option

val publish : t -> unit
(** Build a fresh snapshot from the live states and swap it in.  Only the
    caller blocks on the states' mutexes; concurrent queries keep
    answering from the previous generation until the swap lands. *)

val respond_rendered : t -> Protocol.request -> string * bool
(** Answer [r] as wire bytes, entirely from the latest published
    snapshot, loaded once, so every field comes from one generation.
    [stats], whole-report [sa-status] and [import-pref] return the
    string rendered once at {!publish} time; per-prefix [sa-status] and
    [snapshot] render on the fly.  Unknown vantages yield
    {!Protocol.error_response}; report objects come from
    {!Rpi_ingest.Render}, so they are byte-identical to the batch CLI's
    output for the same table.  The bool is [false] exactly when the
    response is an error object.  This is the event loop's dispatch
    path. *)
