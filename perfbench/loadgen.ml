module Protocol = Rpi_serve.Protocol

type conn = {
  mutable fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable req : int;  (** Request in flight, -1 when idle. *)
  mutable t0 : float;
}

type pool = { connect : unit -> Unix.file_descr; conns : conn array }

let fresh fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0; req = -1; t0 = 0.0 }
let create ~connect n = { connect; conns = Array.init n (fun _ -> fresh (connect ())) }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()
let close pool = Array.iter (fun c -> close_fd c.fd) pool.conns

type result = { latencies : float array; bytes : int array; failed : int; wall : float }

(* Error and shed frames are objects whose first key is "error". *)
let error_prefix = "{\"error\""

let is_error buf off len =
  let k = String.length error_prefix in
  len >= k
  &&
  let rec go j = j = k || (Bytes.get buf (off + j) = error_prefix.[j] && go (j + 1)) in
  go 0

(* One frame's boundaries, found in place: the load generator must not
   copy response bodies (a 9 KB report body is a major-heap allocation,
   and collecting those would land inside the measured latencies).  The
   header checks are Protocol.decode's: 1-8 digits, a newline, a length
   in 1..max_frame. *)
let scan buf ~pos ~len =
  let limit = pos + len in
  let rec header i n =
    if i >= limit then `Need_more
    else
      match Bytes.get buf i with
      | '\n' when i > pos && n <= Protocol.max_frame && n >= 1 -> body (i + 1) n
      | '0' .. '9' as d when i - pos < 8 -> header (i + 1) ((n * 10) + Char.code d - 48)
      | _ -> `Bad
  and body start n = if limit - start < n then `Need_more else `Frame (start, n)
  in
  header pos 0

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let rec select_read fds =
  match Unix.select fds [] [] (-1.0) with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let phase ?on_body pool ~next:frame_of =
  let latencies = ref (Array.make 1024 infinity) in
  let bytes = ref (Array.make 1024 0) in
  let failed = ref 0 in
  let next = ref 0 in
  let more = ref true in
  let t_start = Measure.now () in
  let reconnect c =
    close_fd c.fd;
    c.fd <- pool.connect ();
    c.pos <- 0;
    c.len <- 0
  in
  let fail c =
    if c.req >= 0 then incr failed;
    c.req <- -1;
    reconnect c
  in
  let rec send c =
    if !more then
      match frame_of !next with
      | None -> more := false
      | Some frame -> (
          let i = !next in
          incr next;
          if i >= Array.length !latencies then begin
            latencies := grow !latencies infinity;
            bytes := grow !bytes 0
          end;
          c.req <- i;
          c.t0 <- Measure.now ();
          match write_all c.fd frame 0 with
          | () -> ()
          | exception Unix.Unix_error _ ->
              fail c;
              send c)
  in
  let rec drain c =
    match scan c.buf ~pos:c.pos ~len:(c.len - c.pos) with
    | `Frame (start, n) ->
        let now = Measure.now () in
        (* The body proper excludes the frame's trailing newline. *)
        let blen = if Bytes.get c.buf (start + n - 1) = '\n' then n - 1 else n in
        let i = c.req in
        c.req <- -1;
        if i >= 0 then begin
          if is_error c.buf start blen then incr failed
          else begin
            !latencies.(i) <- now -. c.t0;
            !bytes.(i) <- blen
          end;
          match on_body with
          | Some f -> f i (Bytes.sub_string c.buf start blen)
          | None -> ()
        end;
        c.pos <- start + n;
        if c.pos = c.len then begin
          c.pos <- 0;
          c.len <- 0
        end;
        send c;
        drain c
    | `Need_more -> ()
    | `Bad ->
        fail c;
        send c
  in
  let read c =
    if c.pos > 0 then begin
      Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
      c.len <- c.len - c.pos;
      c.pos <- 0
    end;
    if c.len = Bytes.length c.buf then begin
      let bigger = Bytes.create (2 * Bytes.length c.buf) in
      Bytes.blit c.buf 0 bigger 0 c.len;
      c.buf <- bigger
    end;
    match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 ->
        fail c;
        send c
    | k ->
        c.len <- c.len + k;
        drain c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
        fail c;
        send c
  in
  Array.iter send pool.conns;
  let busy () =
    Array.fold_left (fun acc c -> if c.req >= 0 then c.fd :: acc else acc) [] pool.conns
  in
  let rec loop () =
    match busy () with
    | [] -> ()
    | fds ->
        List.iter
          (fun fd ->
            Array.iter (fun c -> if c.fd == fd && c.req >= 0 then read c) pool.conns)
          (select_read fds);
        loop ()
  in
  loop ();
  {
    latencies = Array.sub !latencies 0 !next;
    bytes = Array.sub !bytes 0 !next;
    failed = !failed;
    wall = Measure.now () -. t_start;
  }

let frames a i = if i < Array.length a then Some a.(i) else None
