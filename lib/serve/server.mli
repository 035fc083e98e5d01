(** The rpiserved socket server: {!Eventloop} multiplexers on an
    {!Rpi_pool.Pool}, answering {!Protocol} requests from a
    {!Registry} snapshot.

    Every pool domain runs one readiness loop over a shared non-blocking
    listener (accept balanced by a shared lock) and its own connections
    — pipelined requests, write backpressure, explicit load shedding
    (see {!Eventloop.config}).  {!shutdown} (callable from a signal
    handler) writes an internal pipe once and every loop drains:
    already-queued responses flush under a bounded grace, no new frames
    are read, and {!serve} returns. *)

type address = Unix_socket of string | Tcp of string * int

val address_of_string : string -> (address, string) result
(** ["unix:PATH"] or ["HOST:PORT"]. *)

val address_to_string : address -> string

type metrics = {
  connections : int;
  requests : int;
  errors : int;  (** Parse failures, protocol violations and error responses. *)
  sheds : int;  (** Connections/requests refused with the [overloaded] frame. *)
  busy_s : float;  (** Summed request handling time. *)
}

type t

val create :
  ?log:(Rpi_json.t -> unit) ->
  ?config:Eventloop.config ->
  address:address ->
  Registry.t ->
  t
(** Bind and listen.  [log] receives one access-log object per request
    ([worker], [cmd], [ok], [elapsed_us]); [config] defaults to
    {!Eventloop.default_config}.  A pre-existing unix socket path is
    removed first.
    @raise Failure naming the host when a TCP host does not resolve.
    @raise Unix.Unix_error if the address cannot be bound. *)

val serve : ?jobs:int -> t -> unit
(** Run one event loop on the calling domain plus [jobs - 1] spawned
    ones ({!Rpi_pool.Pool.run} discipline).  Returns after
    {!shutdown}. *)

val shutdown : t -> unit
(** Begin graceful drain.  Async-signal-safe enough for a [Sys.signal]
    handler: one atomic flag set plus one pipe write. *)

val draining : t -> bool
(** True once {!shutdown} has been called — what a replay feeder polls as
    its [stop] condition. *)

val close : t -> unit
(** Release the listening socket and shutdown pipe; unlinks a unix socket
    path.  Call after {!serve} returns. *)

val metrics : t -> metrics

(** {2 Client side} *)

val connect : address -> Unix.file_descr
(** @raise Failure naming the host when a TCP host does not resolve.
    @raise Unix.Unix_error when the connection fails. *)

val query :
  ?timeout:float ->
  ?attempts:int ->
  address ->
  Protocol.request ->
  (Rpi_json.t, string) result
(** One-shot client: connect, send the request, read one response frame,
    close.  What [bgptool query] uses.

    [timeout] bounds each attempt's socket reads and writes (seconds);
    [attempts] (default 1) bounds reconnect-with-backoff: transient
    failures — connection refused/reset, server draining mid-frame, a
    timeout, or an [overloaded] shed frame — sleep [0.05 * 2^k] and
    retry on a fresh connection.  When attempts run out on a shed frame
    the frame itself is returned as [Ok] so callers can distinguish
    overload ({!Protocol.is_overloaded}) from failure.  A TCP host that
    does not resolve is an [Error] naming it, without retries. *)
