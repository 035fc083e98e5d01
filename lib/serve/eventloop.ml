(* The readiness-driven serving core: one loop per pool domain, each
   owning the connections it accepted.  Every turn parks in
   [Unix.select] over the shutdown pipe, the shared listener and this
   loop's live fds, then services writes (frees backpressure), accepts
   (guarded by a shared lock so exactly one domain drains the backlog
   per readiness), and reads — parsing as many pipelined frames as each
   connection's buffer holds and answering in order from the registry's
   current snapshot.

   Load shedding is explicit, never queueing: admission beyond
   [max_connections] and frames beyond the per-turn [max_turn_requests]
   budget are answered with {!Protocol.overloaded_response} immediately
   (and counted in [sheds]); a connection whose write queue sits above
   [write_high_water] simply stops being parsed until it drains —
   backpressure, not an error. *)

module J = Rpi_json

type config = { max_connections : int; max_turn_requests : int }

let default_config = { max_connections = 1024; max_turn_requests = 512 }

(* Queued output bytes that pause parsing a connection. *)
let write_high_water = 256 * 1024

(* Accepts per readiness event. *)
let accept_burst = 32

(* Bytes per non-blocking read. *)
let read_chunk = 64 * 1024

(* --- metrics ------------------------------------------------------- *)

let verb_count = 7

let verb_label = function
  | 0 -> "sa-status"
  | 1 -> "sa-status/prefix"
  | 2 -> "import-pref"
  | 3 -> "stats"
  | 4 -> "snapshot"
  | 5 -> "metrics"
  | _ -> "parse-error"

let verb_index = function
  | Protocol.Sa_status { prefix = None; _ } -> 0
  | Protocol.Sa_status { prefix = Some _; _ } -> 1
  | Protocol.Import_pref _ -> 2
  | Protocol.Stats -> 3
  | Protocol.Snapshot -> 4
  | Protocol.Metrics -> 5

let parse_error_verb = 6

let bucket_limits_us =
  [ 50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000; 50000; 100000 ]

type stats = {
  connections_total : int Atomic.t;
  connections_active : int Atomic.t;
  requests_by_verb : int Atomic.t array;
  errors : int Atomic.t;
  sheds : int Atomic.t;
  busy_us : int Atomic.t;
  latency : int Atomic.t array;  (* one slot per bucket limit, plus +Inf *)
}

let make_stats () =
  {
    connections_total = Atomic.make 0;
    connections_active = Atomic.make 0;
    requests_by_verb = Array.init verb_count (fun _ -> Atomic.make 0);
    errors = Atomic.make 0;
    sheds = Atomic.make 0;
    busy_us = Atomic.make 0;
    latency =
      Array.init (List.length bucket_limits_us + 1) (fun _ -> Atomic.make 0);
  }

let observe_latency stats us =
  let rec slot i = function
    | [] -> i
    | limit :: rest -> if us <= limit then i else slot (i + 1) rest
  in
  Atomic.incr stats.latency.(slot 0 bucket_limits_us)

let requests_total stats =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 stats.requests_by_verb

let connections_seen stats = Atomic.get stats.connections_total
let errors_total stats = Atomic.get stats.errors
let sheds_total stats = Atomic.get stats.sheds
let busy_seconds stats = float_of_int (Atomic.get stats.busy_us) /. 1e6

(* Prometheus-style: [le] buckets are cumulative, ending at [le_inf] =
   total observations. *)
let metrics_json stats =
  let requests =
    List.init verb_count (fun i ->
        (verb_label i, J.Int (Atomic.get stats.requests_by_verb.(i))))
  in
  let bucket_labels =
    List.map (Printf.sprintf "le_%d") bucket_limits_us @ [ "le_inf" ]
  in
  let cumulative = ref 0 in
  let latency =
    List.mapi
      (fun i label ->
        cumulative := !cumulative + Atomic.get stats.latency.(i);
        (label, J.Int !cumulative))
      bucket_labels
  in
  J.Obj
    [
      ("connections_total", J.Int (Atomic.get stats.connections_total));
      ("connections_active", J.Int (Atomic.get stats.connections_active));
      ("requests_total", J.Obj requests);
      ("errors_total", J.Int (Atomic.get stats.errors));
      ("sheds_total", J.Int (Atomic.get stats.sheds));
      ( "busy_seconds_total",
        J.Float (float_of_int (Atomic.get stats.busy_us) /. 1e6) );
      ("latency_us", J.Obj latency);
    ]

(* --- the loop ------------------------------------------------------ *)

type loop = {
  config : config;
  registry : Registry.t;
  listen_fd : Unix.file_descr;
  wake_fd : Unix.file_descr;  (* the shutdown pipe's read end *)
  accept_lock : Mutex.t;
  draining : unit -> bool;
  stats : stats;
  log : (J.t -> unit) option;
  worker : int;
  mutable conns : Conn.t list;
  mutable turn_budget : int;
}

let access_log l ~cmd ~ok ~elapsed_us =
  match l.log with
  | None -> ()
  | Some log ->
      log
        (J.Obj
           [
             ("worker", J.Int l.worker);
             ("cmd", J.String cmd);
             ("ok", J.Bool ok);
             ("elapsed_us", J.Int elapsed_us);
           ])

let drop l conn =
  if List.memq conn l.conns then begin
    l.conns <- List.filter (fun c -> not (c == conn)) l.conns;
    Atomic.decr l.stats.connections_active;
    Conn.close conn
  end

(* Answer one parsed frame.  The registry dispatch reads exactly one
   published snapshot; [metrics] is answered here, straight from the
   loop's shared counters. *)
let handle_frame l conn body =
  let t0 = Unix.gettimeofday () in
  let response, ok, verb =
    match Result.bind (J.of_string body) Protocol.request_of_json with
    | Ok Protocol.Metrics ->
        ( Rpi_json.to_string (metrics_json l.stats),
          true,
          verb_index Protocol.Metrics )
    | Ok request ->
        let body, ok = Registry.respond_rendered l.registry request in
        (body, ok, verb_index request)
    | Error msg ->
        ( Rpi_json.to_string (Protocol.error_response msg),
          false,
          parse_error_verb )
  in
  Conn.enqueue conn response;
  let elapsed_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  Atomic.incr l.stats.requests_by_verb.(verb);
  if not ok then Atomic.incr l.stats.errors;
  ignore (Atomic.fetch_and_add l.stats.busy_us elapsed_us);
  observe_latency l.stats elapsed_us;
  access_log l ~cmd:(verb_label verb) ~ok ~elapsed_us

(* Drain the connection's parse buffer: as many frames as it holds, in
   order — this is where pipelining happens.  Stops early on
   backpressure (write queue above high water) so a slow reader cannot
   make us buffer unbounded responses. *)
let rec parse_ready l conn =
  if
    Conn.phase conn = Conn.Active
    && Conn.pending_out conn < write_high_water
  then begin
    match Conn.next_frame conn with
    | `Need_more -> ()
    | `Bad msg ->
        Atomic.incr l.stats.errors;
        Conn.enqueue_json conn (Protocol.error_response msg);
        Conn.start_closing conn
    | `Frame body ->
        if l.turn_budget <= 0 then begin
          Atomic.incr l.stats.sheds;
          Conn.enqueue_json conn Protocol.overloaded_response
        end
        else begin
          l.turn_budget <- l.turn_budget - 1;
          handle_frame l conn body
        end;
        parse_ready l conn
  end

(* Opportunistic flush after producing output; select drives the rest. *)
let try_flush l conn =
  if Conn.pending_out conn > 0 then begin
    match Conn.flush conn with
    | `Flushed | `Blocked -> ()
    | `Error -> drop l conn
  end;
  if
    List.memq conn l.conns
    && Conn.phase conn = Conn.Closing
    && Conn.pending_out conn = 0
  then drop l conn

let service_read l conn =
  match Conn.fill ~chunk:read_chunk conn with
  | `Eof | `Error -> drop l conn
  | `Blocked -> ()
  | `Data ->
      parse_ready l conn;
      try_flush l conn

let service_write l conn =
  match Conn.flush conn with
  | `Error -> drop l conn
  | `Flushed | `Blocked ->
      if Conn.phase conn = Conn.Closing && Conn.pending_out conn = 0 then
        drop l conn
      else begin
        (* Freed write-queue space may unblock parsing of buffered
           pipelined requests. *)
        parse_ready l conn;
        try_flush l conn
      end

let admit l fd =
  Unix.set_nonblock fd;
  Atomic.incr l.stats.connections_total;
  Atomic.incr l.stats.connections_active;
  let conn = Conn.create fd in
  l.conns <- conn :: l.conns;
  if Atomic.get l.stats.connections_active > l.config.max_connections then begin
    (* Shed at admission: say why, then close once the frame is out. *)
    Atomic.incr l.stats.sheds;
    Conn.enqueue_json conn Protocol.overloaded_response;
    Conn.start_closing conn;
    try_flush l conn
  end

let do_accept l =
  (* One domain drains the backlog per readiness event; the others see a
     held lock and go back to select.  try_lock keeps the loop
     non-blocking — the lint rule's point. *)
  if Mutex.try_lock l.accept_lock then begin
    Fun.protect
      ~finally:(fun () -> Mutex.unlock l.accept_lock)
      (fun () ->
        let rec go n =
          if n > 0 then begin
            match
              (* The listener is registered non-blocking in
                 Server.bind_listen, so accept returns EAGAIN instead of
                 parking the domain. *)
              (* rpilint: allow blocking-in-eventloop *)
              Unix.accept ~cloexec:true l.listen_fd
            with
            | fd, _ ->
                admit l fd;
                go (n - 1)
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error (_, _, _) -> ()
          end
        in
        go accept_burst)
  end

(* Bounded farewell: flush what's already queued (in-flight requests
   complete), then close everything.  A peer that stopped reading
   forfeits its tail after the grace period. *)
let drain_exit l =
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec go () =
    let pending = List.filter (fun c -> Conn.pending_out c > 0) l.conns in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      match Unix.select [] (List.map Conn.fd pending) [] 0.05 with
      | _, writable, _ ->
          List.iter
            (fun c ->
              if List.mem (Conn.fd c) writable then ignore (Conn.flush c))
            pending;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    end
  in
  go ();
  List.iter
    (fun c ->
      Atomic.decr l.stats.connections_active;
      Conn.close c)
    l.conns;
  l.conns <- []

let wants_read conn =
  Conn.phase conn = Conn.Active
  && Conn.pending_out conn < write_high_water

let rec loop l =
  if l.draining () then drain_exit l
  else begin
    l.turn_budget <- l.config.max_turn_requests;
    let reads =
      l.wake_fd :: l.listen_fd
      :: List.filter_map
           (fun c -> if wants_read c then Some (Conn.fd c) else None)
           l.conns
    in
    let writes =
      List.filter_map
        (fun c -> if Conn.pending_out c > 0 then Some (Conn.fd c) else None)
        l.conns
    in
    match Unix.select reads writes [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop l
    | readable, writable, _ ->
        if l.draining () then drain_exit l
        else begin
          (* Writes first: draining a queue may unblock parsing. *)
          List.iter
            (fun c ->
              if List.mem (Conn.fd c) writable then service_write l c)
            l.conns;
          if List.mem l.listen_fd readable then do_accept l;
          List.iter
            (fun c ->
              if List.memq c l.conns && List.mem (Conn.fd c) readable then
                service_read l c)
            l.conns;
          loop l
        end
  end

let run ~config ~registry ~listen_fd ~wake_fd ~accept_lock ~draining ~stats
    ?log ~worker () =
  let l =
    {
      config;
      registry;
      listen_fd;
      wake_fd;
      accept_lock;
      draining;
      stats;
      log;
      worker;
      conns = [];
      turn_budget = config.max_turn_requests;
    }
  in
  loop l
