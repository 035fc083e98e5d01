(** One client connection's incremental state machine.

    A connection owns a growable read buffer fed by non-blocking reads
    and a write queue drained by non-blocking writes; {!next_frame}
    parses as many complete {!Protocol} frames as the read buffer holds
    (pipelining), and {!enqueue} appends framed responses in order.  The
    event loop decides when to call {!fill}/{!flush} from readiness, and
    applies backpressure by not parsing while {!pending_out} sits above
    its high-water mark.

    The fd must already be non-blocking: the internal reads and writes
    rely on EAGAIN, never on blocking. *)

type phase =
  | Active  (** reading requests, writing responses *)
  | Closing  (** no more reads; flush what's queued, then close *)

type t

val create : Unix.file_descr -> t
(** Wrap an fd the caller has already set non-blocking. *)

val fd : t -> Unix.file_descr
val phase : t -> phase

val start_closing : t -> unit
(** Stop reading; the loop flushes the remaining output then closes.
    Used for shed/protocol-violation farewells and drain. *)

val pending_out : t -> int
(** Bytes queued but not yet written — the backpressure signal. *)

val fill : chunk:int -> t -> [ `Data | `Eof | `Blocked | `Error ]
(** One non-blocking read of up to [chunk] bytes into the read
    buffer. *)

val next_frame : t -> [ `Frame of string | `Need_more | `Bad of string ]
(** Parse one frame from the buffered input, consuming it.  Call
    repeatedly to drain pipelined requests; [`Bad] is a protocol
    violation and the connection should say goodbye and close. *)

val enqueue : t -> string -> unit
(** Frame one response body onto the write queue. *)

val enqueue_json : t -> Rpi_json.t -> unit

val flush : t -> [ `Flushed | `Blocked | `Error ]
(** Write queued bytes until done or EAGAIN. *)

val close : t -> unit
(** Close the fd (idempotent, errors swallowed). *)
