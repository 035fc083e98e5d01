(** The readiness-driven serving core.

    One loop per pool domain: each parks in [Unix.select] over the
    shutdown pipe, the shared non-blocking listener and its own live
    connections, accepts under a shared lock (one domain drains the
    backlog per readiness event), and drives each {!Conn} state machine
    — pipelined frames parsed in order, responses answered from the
    {!Registry}'s current snapshot, writes flushed as the peer allows.

    Shedding is explicit: admission beyond [max_connections] and frames
    beyond the per-turn [max_turn_requests] budget get
    {!Protocol.overloaded_response} immediately; a write queue above
    [write_high_water] pauses parsing for that connection until it
    drains (backpressure, not an error).

    The [metrics] protocol verb is answered here, from the shared
    {!stats} — Prometheus-style counters and a cumulative latency
    histogram. *)

type config = {
  max_connections : int;  (** live connections across all loops *)
  max_turn_requests : int;  (** dispatches per loop turn before shedding *)
  write_high_water : int;  (** queued output bytes that pause parsing *)
  accept_burst : int;  (** accepts per readiness event *)
  read_chunk : int;  (** bytes per non-blocking read *)
}

val default_config : config
(** 1024 connections, 512 requests/turn, 256 KiB high water, 32-accept
    bursts, 64 KiB reads. *)

type stats
(** Shared serving counters; one value serves every loop domain. *)

val make_stats : unit -> stats
val requests_total : stats -> int
val connections_seen : stats -> int
val errors_total : stats -> int
val sheds_total : stats -> int
val busy_seconds : stats -> float

val run :
  config:config ->
  registry:Registry.t ->
  listen_fd:Unix.file_descr ->
  wake_fd:Unix.file_descr ->
  accept_lock:Mutex.t ->
  draining:(unit -> bool) ->
  stats:stats ->
  ?log:(Rpi_json.t -> unit) ->
  worker:int ->
  unit ->
  unit
(** Run one loop until [draining ()] turns true (signalled by a byte on
    [wake_fd]); queued responses are flushed under a bounded grace
    period, then every owned connection is closed. *)
