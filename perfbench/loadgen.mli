(** Closed-loop load generation over persistent connections, from one
    thread.  Each connection carries at most one request at a time: the
    next request goes out on a connection only once the previous response
    on it has fully arrived, so a slow server receives less load instead
    of a growing queue. *)

type pool

val create : connect:(unit -> Unix.file_descr) -> int -> pool
(** [create ~connect n] opens [n] persistent connections. *)

val close : pool -> unit

type result = {
  latencies : float array;
      (** Seconds from send to the full response, per request in input
          order; [infinity] for a failed request. *)
  bytes : int array;  (** Response body bytes per request; 0 when failed. *)
  failed : int;
      (** Requests answered with an error or overloaded frame (a JSON
          object whose first key is ["error"]), or lost with their
          connection. *)
  wall : float;  (** Seconds from the first send to the last response. *)
}

val phase : ?on_body:(int -> string -> unit) -> pool -> next:(int -> string option) -> result
(** Send requests through the pool, closed loop, until [next i] — the
    encoded frame of request [i] — returns [None]; then wait for the
    responses in flight and return per-request accounting.  A connection
    that fails is replaced by a fresh one; its in-flight request counts
    as failed.  [on_body i body] sees every complete response body. *)

val frames : string array -> int -> string option
(** [next] for a fixed list of frames. *)
