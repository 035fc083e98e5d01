type address = Unix_socket of string | Tcp of string * int

let address_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad listen address %S (want unix:PATH or HOST:PORT)" s)
  | Some i ->
      let head = String.sub s 0 i in
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      if String.equal head "unix" then
        if String.equal tail "" then Error "unix: needs a socket path"
        else Ok (Unix_socket tail)
      else begin
        match int_of_string_opt tail with
        | Some port when port > 0 && port < 65536 -> Ok (Tcp (head, port))
        | Some _ | None -> Error (Printf.sprintf "bad port in listen address %S" s)
      end

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type metrics = {
  connections : int;
  requests : int;
  errors : int;
  sheds : int;
  busy_s : float;  (** summed request handling time *)
}

type t = {
  registry : Registry.t;
  address : address;
  config : Eventloop.config;
  listen_fd : Unix.file_descr;
  pipe_rd : Unix.file_descr;
  pipe_wr : Unix.file_descr;
  stopping : bool Atomic.t;
  accept_lock : Mutex.t;
  log : (Rpi_json.t -> unit) option;
  stats : Eventloop.stats;
}

(* A write to a peer-closed socket must surface as EPIPE so the
   connection state machine (and the client helpers' retry logic) can
   handle it — the default SIGPIPE disposition kills the whole process
   instead, taking every loop domain with it.  Idempotent; set on both
   the serving and the connecting path so CLI clients are covered too. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* [host]'s first address.  A host that does not resolve is an error
   that names it, never a quiet fallback to loopback. *)
let resolve host =
  match Unix.gethostbyname host with
  | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      failwith (Printf.sprintf "cannot resolve host %S" host)
  | entry -> entry.Unix.h_addr_list.(0)

let bind_listen address =
  let fd =
    match address with
    | Unix_socket path ->
        if Sys.file_exists path then Sys.remove path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        fd
    | Tcp (host, port) ->
        let addr = resolve host in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        fd
  in
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let create ?log ?(config = Eventloop.default_config) ~address registry =
  ignore_sigpipe ();
  let listen_fd = bind_listen address in
  let pipe_rd, pipe_wr = Unix.pipe () in
  {
    registry;
    address;
    config;
    listen_fd;
    pipe_rd;
    pipe_wr;
    stopping = Atomic.make false;
    accept_lock = Mutex.create ();
    log;
    stats = Eventloop.make_stats ();
  }

let metrics t =
  let s = t.stats in
  {
    connections = Eventloop.connections_seen s;
    requests = Eventloop.requests_total s;
    errors = Eventloop.errors_total s;
    sheds = Eventloop.sheds_total s;
    busy_s = Eventloop.busy_seconds s;
  }

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake every loop parked in select; a single byte fans out because
       nobody drains the pipe. *)
    try ignore (Unix.write t.pipe_wr (Bytes.of_string "x") 0 1)
    with Unix.Unix_error (_, _, _) -> ()
  end

let stopping t = Atomic.get t.stopping
let draining = stopping

let serve ?jobs t =
  Rpi_pool.Pool.run ?jobs (fun worker ->
      Eventloop.run ~config:t.config ~registry:t.registry
        ~listen_fd:t.listen_fd ~wake_fd:t.pipe_rd ~accept_lock:t.accept_lock
        ~draining:(fun () -> stopping t)
        ~stats:t.stats ?log:t.log ~worker ())

let close t =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    [ t.listen_fd; t.pipe_rd; t.pipe_wr ];
  match t.address with
  | Unix_socket path -> if Sys.file_exists path then Sys.remove path
  | Tcp _ -> ()

(* --- client side --------------------------------------------------- *)

let connect address =
  ignore_sigpipe ();
  match address with
  | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let addr = resolve host in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd

(* A connect/read/write failure a fresh connection might not repeat:
   the server restarting (refused / unreachable socket path), a shed or
   drained connection (reset / EOF mid-frame), or a timeout. *)
let transient_unix_error = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.EPIPE
  | Unix.ENOENT | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK ->
      true
  | _ -> false

let query_once ?timeout address request =
  match connect address with
  | exception Unix.Unix_error (e, _, _) when transient_unix_error e ->
      `Retry (Printf.sprintf "connect: %s" (Unix.error_message e))
  | exception Unix.Unix_error (e, _, _) ->
      `Fail (Printf.sprintf "connect: %s" (Unix.error_message e))
  | exception Failure msg -> `Fail msg
  | fd ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        (fun () ->
          Option.iter
            (fun s ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO s)
            timeout;
          match
            (* A shed connection may be closed server-side before our
               write lands; its overloaded frame is still queued for
               reading, so a broken-pipe write is not fatal here. *)
            (try Protocol.write_json fd (Protocol.request_to_json request)
             with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
               ());
            Protocol.read_json fd
          with
          | Ok (Some json) ->
              if Protocol.is_overloaded json then `Overloaded json
              else `Ok json
          | Ok None -> `Retry "server closed the connection without answering"
          | Error msg -> `Fail msg
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              (* SO_RCVTIMEO/SO_SNDTIMEO expire as EAGAIN. *)
              `Retry "timed out waiting for the server"
          | exception Unix.Unix_error (e, _, _) when transient_unix_error e ->
              `Retry (Unix.error_message e)
          | exception Unix.Unix_error (e, _, _) -> `Fail (Unix.error_message e))

(* Bounded reconnect-with-backoff: transient failures sleep
   0.05 * 2^attempt then retry on a fresh connection; an [overloaded]
   shed frame also retries (the server asked us to back off) but is
   reported distinctly once attempts run out. *)
let query ?timeout ?(attempts = 1) address request =
  let attempts = max 1 attempts in
  let rec go k last =
    if k >= attempts then
      match last with
      | `Overloaded json -> Ok json
      | `Msg msg ->
          Error
            (if attempts > 1 then
               Printf.sprintf "%s (after %d attempts)" msg attempts
             else msg)
    else begin
      if k > 0 then Unix.sleepf (0.05 *. (2.0 ** float_of_int (k - 1)));
      match query_once ?timeout address request with
      | `Ok json -> Ok json
      | `Fail msg -> Error msg
      | `Retry msg -> go (k + 1) (`Msg msg)
      | `Overloaded json -> go (k + 1) (`Overloaded json)
    end
  in
  go 0 (`Msg "no attempts made")
