(* One client connection's state machine: incremental, non-blocking
   buffers on both sides.  The fd is registered non-blocking by the
   event loop before a [t] is made, so the raw [Unix.read]/[Unix.write]
   calls below can never park a domain — they return EAGAIN instead.
   That boundary is what the blocking-in-eventloop lint rule polices;
   these two wrappers are its one sanctioned crossing. *)

type phase =
  | Active  (* reading requests, writing responses *)
  | Closing  (* no more reads; flush what's queued, then close *)

type t = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;  (* buffered input; valid bytes are [0, rlen) *)
  mutable rlen : int;
  mutable rpos : int;  (* parse cursor into rbuf *)
  mutable wbuf : Bytes.t;  (* queued output; unsent bytes are [wpos, wlen) *)
  mutable wlen : int;
  mutable wpos : int;
  mutable phase : phase;
}

let create fd =
  {
    fd;
    rbuf = Bytes.create 4096;
    rlen = 0;
    rpos = 0;
    wbuf = Bytes.create 4096;
    wlen = 0;
    wpos = 0;
    phase = Active;
  }

let fd t = t.fd
let phase t = t.phase
let start_closing t = t.phase <- Closing
let pending_out t = t.wlen - t.wpos

(* Drop consumed bytes so the buffer never grows with the total bytes
   seen, only with the largest in-flight frame / response backlog. *)
let compact_read t =
  if t.rpos > 0 then begin
    let live = t.rlen - t.rpos in
    if live > 0 then Bytes.blit t.rbuf t.rpos t.rbuf 0 live;
    t.rlen <- live;
    t.rpos <- 0
  end

let compact_write t =
  if t.wpos > 0 then begin
    let live = t.wlen - t.wpos in
    if live > 0 then Bytes.blit t.wbuf t.wpos t.wbuf 0 live;
    t.wlen <- live;
    t.wpos <- 0
  end

let ensure_read_room t need =
  compact_read t;
  if Bytes.length t.rbuf - t.rlen < need then begin
    let cap = max (Bytes.length t.rbuf * 2) (t.rlen + need) in
    let nbuf = Bytes.create cap in
    Bytes.blit t.rbuf 0 nbuf 0 t.rlen;
    t.rbuf <- nbuf
  end

let ensure_write_room t need =
  compact_write t;
  if Bytes.length t.wbuf - t.wlen < need then begin
    let cap = max (Bytes.length t.wbuf * 2) (t.wlen + need) in
    let nbuf = Bytes.create cap in
    Bytes.blit t.wbuf 0 nbuf 0 t.wlen;
    t.wbuf <- nbuf
  end

let fill ~chunk t =
  ensure_read_room t chunk;
  match
    (* rpilint: allow blocking-in-eventloop *)
    Unix.read t.fd t.rbuf t.rlen chunk
  with
  | 0 -> `Eof
  | n ->
      t.rlen <- t.rlen + n;
      `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      `Blocked
  | exception Unix.Unix_error (_, _, _) -> `Error

let next_frame t =
  match Protocol.decode t.rbuf ~pos:t.rpos ~len:(t.rlen - t.rpos) with
  | `Frame (body, consumed) ->
      t.rpos <- t.rpos + consumed;
      if t.rpos = t.rlen then begin
        t.rpos <- 0;
        t.rlen <- 0
      end;
      `Frame body
  | `Need_more ->
      compact_read t;
      `Need_more
  | `Bad _ as bad -> bad

let enqueue t body =
  let frame = Protocol.frame_of_body body in
  let n = String.length frame in
  ensure_write_room t n;
  Bytes.blit_string frame 0 t.wbuf t.wlen n;
  t.wlen <- t.wlen + n

let enqueue_json t json = enqueue t (Rpi_json.to_string json)

let flush t =
  let rec go () =
    let pending = t.wlen - t.wpos in
    if pending = 0 then begin
      t.wpos <- 0;
      t.wlen <- 0;
      `Flushed
    end
    else begin
      match
        (* rpilint: allow blocking-in-eventloop *)
        Unix.write t.fd t.wbuf t.wpos pending
      with
      | n ->
          t.wpos <- t.wpos + n;
          go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          compact_write t;
          `Blocked
      | exception Unix.Unix_error (_, _, _) -> `Error
    end
  in
  go ()

let close t =
  t.phase <- Closing;
  try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
