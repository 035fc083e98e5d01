(* The socket server end to end, in process: frame a request over a unix
   socket, get the same bytes a direct Render call produces, and drain
   cleanly while connections are open. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module As_path = Rpi_bgp.As_path
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4
module As_graph = Rpi_topo.As_graph
module State = Rpi_ingest.State
module Render = Rpi_ingest.Render
module Protocol = Rpi_serve.Protocol
module Registry = Rpi_serve.Registry
module Server = Rpi_serve.Server

let asn = Asn.of_int
let p s = Prefix.of_string_exn s
let js = Rpi_json.to_string

let graph () =
  let v = asn 100 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:v ~customer:(asn 10) in
  let g = As_graph.add_p2c g ~provider:(asn 10) ~customer:(asn 11) in
  let g = As_graph.add_p2p g v (asn 20) in
  let g = As_graph.add_p2c g ~provider:(asn 30) ~customer:v in
  let g = As_graph.add_p2c g ~provider:(asn 20) ~customer:(asn 11) in
  g

let route ?(lp = 100) ~peer ~rid path prefix =
  Route.make ~prefix
    ~next_hop:(Ipv4.of_octets 192 0 2 rid)
    ~as_path:(As_path.of_list (List.map asn path))
    ~local_pref:lp
    ~router_id:(Ipv4.of_octets 192 0 2 rid)
    ~peer_as:(asn peer) ()

let registry () =
  let g = graph () in
  let v = asn 100 in
  let rib =
    Rib.of_routes
      [
        route ~peer:10 ~rid:1 ~lp:120 [ 10; 11 ] (p "10.11.0.0/16");
        route ~peer:20 ~rid:2 ~lp:90 [ 20; 11 ] (p "10.12.0.0/16");
        route ~peer:30 ~rid:3 ~lp:80 [ 30; 40 ] (p "40.0.0.0/8");
      ]
  in
  let state = State.create ~graph:g ~vantage:v ~initial:rib () in
  Registry.create ~collector:state ~vantages:[ (v, state) ]

let socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rpiserved-test-%d.sock" (Unix.getpid ()))

(* Protocol framing without any socket: a pipe is enough. *)
let test_framing () =
  let rd, wr = Unix.pipe () in
  let payloads = [ "{\"cmd\":\"stats\"}"; "{}"; String.make 4000 'x' ] in
  List.iter (fun body -> Protocol.write_frame wr body) payloads;
  Unix.close wr;
  let read_back =
    List.map
      (fun _ ->
        match Protocol.read_frame rd with
        | Ok (Some body) -> body
        | Ok None -> Alcotest.fail "unexpected EOF"
        | Error e -> Alcotest.failf "read_frame: %s" e)
      payloads
  in
  (match Protocol.read_frame rd with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "expected clean EOF"
  | Error e -> Alcotest.failf "EOF read: %s" e);
  Unix.close rd;
  List.iter2
    (fun sent got -> Alcotest.(check string) "frame round-trips" sent got)
    payloads read_back;
  let rd, wr = Unix.pipe () in
  ignore (Unix.write_substring wr "notdigits\n" 0 10);
  Unix.close wr;
  (match Protocol.read_frame rd with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header must be rejected");
  Unix.close rd

let test_request_parsing () =
  List.iter
    (fun args ->
      match Protocol.request_of_args args with
      | Error e -> Alcotest.failf "parse %s: %s" (String.concat " " args) e
      | Ok request ->
          let round =
            Result.bind
              (Rpi_json.of_string (js (Protocol.request_to_json request)))
              Protocol.request_of_json
          in
          (match round with
          | Ok request' ->
              Alcotest.(check string)
                "request json round-trips"
                (js (Protocol.request_to_json request))
                (js (Protocol.request_to_json request'))
          | Error e -> Alcotest.failf "round-trip: %s" e))
    [
      [ "sa-status"; "AS100" ];
      [ "sa-status"; "AS100"; "10.12.0.0/16" ];
      [ "import-pref"; "AS100" ];
      [ "stats" ];
      [ "snapshot" ];
    ];
  match Protocol.request_of_args [ "bogus" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown command must be rejected"

(* Full loop: serve on a unix socket from a spawned domain, query from
   the test domain, then shut down and join. *)
let test_socket_round_trip () =
  let reg = registry () in
  let path = socket_path () in
  let address = Server.Unix_socket path in
  let server = Server.create ~address reg in
  let server_domain = Domain.spawn (fun () -> Server.serve ~jobs:2 server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join server_domain;
      Server.close server)
    (fun () ->
      let expect_response request =
        match Server.query address request with
        | Ok json -> json
        | Error e -> Alcotest.failf "query: %s" e
      in
      Alcotest.(check string)
        "stats over the socket"
        (js (Render.stats_of_state reg.Registry.collector))
        (js (expect_response Protocol.Stats));
      Alcotest.(check string)
        "sa-status over the socket"
        (fst (Registry.respond_rendered reg (Protocol.Sa_status { asn = asn 100; prefix = None })))
        (js (expect_response (Protocol.Sa_status { asn = asn 100; prefix = None })));
      (match
         expect_response
           (Protocol.Sa_status { asn = asn 100; prefix = Some (p "10.12.0.0/16") })
       with
      | Rpi_json.Obj fields ->
          Alcotest.(check bool)
            "per-prefix status is selective" true
            (List.assoc_opt "status" fields
            = Some (Rpi_json.String "selective"))
      | _ -> Alcotest.fail "sa-status response is not an object");
      (match expect_response (Protocol.Sa_status { asn = asn 999; prefix = None }) with
      | Rpi_json.Obj (("error", _) :: _) -> ()
      | _ -> Alcotest.fail "unknown vantage must answer an error object");
      (* Snapshot text must feed the batch path: same stats from the dump. *)
      (match expect_response Protocol.Snapshot with
      | Rpi_json.Obj fields -> begin
          match List.assoc_opt "dump" fields with
          | Some (Rpi_json.String dump) -> begin
              match Rpi_mrt.Loader.parse_any dump with
              | Ok rib ->
                  Alcotest.(check string)
                    "snapshot round-trips through the batch path"
                    (js (Render.stats_of_state reg.Registry.collector))
                    (js (Render.stats_of_rib rib))
              | Error e -> Alcotest.failf "snapshot parse: %s" e
            end
          | _ -> Alcotest.fail "snapshot lacks a dump field"
        end
      | _ -> Alcotest.fail "snapshot response is not an object");
      let m = Server.metrics server in
      Alcotest.(check bool) "served at least 5 requests" true (m.Server.requests >= 5);
      Alcotest.(check int) "one error (unknown vantage)" 1 m.Server.errors);
  Alcotest.(check bool) "socket removed on close" false (Sys.file_exists path)

(* Pipelining: write a burst of requests up front on one connection and
   the responses come back in order, byte-identical to what the registry
   renders directly. *)
let test_pipelined_order () =
  let reg = registry () in
  let path = socket_path () in
  let address = Server.Unix_socket path in
  let server = Server.create ~address reg in
  let server_domain = Domain.spawn (fun () -> Server.serve ~jobs:2 server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join server_domain;
      Server.close server)
    (fun () ->
      let requests =
        [
          Protocol.Stats;
          Protocol.Sa_status { asn = asn 100; prefix = None };
          Protocol.Sa_status { asn = asn 100; prefix = Some (p "10.12.0.0/16") };
          Protocol.Import_pref (asn 100);
          Protocol.Sa_status { asn = asn 999; prefix = None };
          Protocol.Snapshot;
          Protocol.Stats;
        ]
      in
      let expected =
        List.map (fun r -> fst (Registry.respond_rendered reg r)) requests
      in
      let fd = Server.connect address in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter
            (fun r -> Protocol.write_json fd (Protocol.request_to_json r))
            requests;
          List.iteri
            (fun i want ->
              match Protocol.read_json fd with
              | Ok (Some json) ->
                  Alcotest.(check string)
                    (Printf.sprintf "pipelined response %d" i)
                    want (js json)
              | Ok None -> Alcotest.fail "connection closed mid-pipeline"
              | Error e -> Alcotest.failf "pipelined read: %s" e)
            expected))

(* Admission shedding: with max_connections = 4 and eight clients that
   all stay open, exactly four are answered and exactly four get the
   overloaded frame. *)
let test_admission_shed () =
  let reg = registry () in
  let path = socket_path () in
  let address = Server.Unix_socket path in
  let config =
    { Rpi_serve.Eventloop.default_config with max_connections = 4 }
  in
  let server = Server.create ~address ~config reg in
  let server_domain = Domain.spawn (fun () -> Server.serve ~jobs:1 server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join server_domain;
      Server.close server)
    (fun () ->
      let fds = List.init 8 (fun _ -> Server.connect address) in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close fds)
        (fun () ->
          List.iter
            (fun fd ->
              (* a shed connection may already be closed server-side;
                 its overloaded frame is still queued for reading *)
              try Protocol.write_json fd (Protocol.request_to_json Protocol.Stats)
              with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())
            fds;
          let served, shed =
            List.fold_left
              (fun (served, shed) fd ->
                match Protocol.read_json fd with
                | Ok (Some json) when Protocol.is_overloaded json ->
                    (served, shed + 1)
                | Ok (Some json) ->
                    Alcotest.(check string)
                      "admitted connection gets real stats"
                      (js (Render.stats_of_state reg.Registry.collector))
                      (js json);
                    (served + 1, shed)
                | Ok None -> Alcotest.fail "EOF before any response"
                | Error e -> Alcotest.failf "shed read: %s" e)
              (0, 0) fds
          in
          Alcotest.(check int) "exactly four served" 4 served;
          Alcotest.(check int) "exactly four shed" 4 shed;
          let m = Server.metrics server in
          Alcotest.(check int) "metrics count the sheds" 4 m.Server.sheds))

(* Snapshot-swap invariant: a feeder domain mutating collector state and
   publishing concurrently with queries never produces a torn response —
   every stats answer is byte-identical to some published generation,
   and the generations a client observes never go backwards. *)
let test_snapshot_never_torn () =
  let epochs = 15 in
  let extra_route i =
    route ~peer:10 ~rid:1 ~lp:100 [ 10; 11 ]
      (p (Printf.sprintf "10.%d.0.0/16" (100 + i)))
  in
  let build () =
    let rib =
      Rib.of_routes [ route ~peer:10 ~rid:1 ~lp:120 [ 10; 11 ] (p "10.11.0.0/16") ]
    in
    State.create ~graph:(graph ()) ~vantage:(asn 100) ~initial:rib ()
  in
  (* Precompute the expected render of every generation on a replica. *)
  let replica = build () in
  let expected = Array.make (epochs + 1) "" in
  expected.(0) <- js (Render.stats_of_state replica);
  for i = 1 to epochs do
    State.apply replica
      (Rpi_bgp.Update.announce ~from_as:(asn 10) ~to_as:(asn 100) (extra_route i));
    expected.(i) <- js (Render.stats_of_state replica)
  done;
  let state = build () in
  let reg = Registry.create ~collector:state ~vantages:[ (asn 100, state) ] in
  let path = socket_path () in
  let address = Server.Unix_socket path in
  let server = Server.create ~address reg in
  let server_domain = Domain.spawn (fun () -> Server.serve ~jobs:2 server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join server_domain;
      Server.close server)
    (fun () ->
      let feeder =
        Domain.spawn (fun () ->
            for i = 1 to epochs do
              State.apply state
                (Rpi_bgp.Update.announce ~from_as:(asn 10) ~to_as:(asn 100)
                   (extra_route i));
              Registry.publish reg
            done)
      in
      let last = ref 0 in
      let queries = ref 0 in
      while !last < epochs do
        incr queries;
        if !queries > 10_000 then Alcotest.fail "feeder never finished";
        match Server.query address Protocol.Stats with
        | Error e -> Alcotest.failf "query: %s" e
        | Ok json ->
            let got = js json in
            let gen = ref (-1) in
            Array.iteri (fun i s -> if String.equal s got then gen := i) expected;
            if !gen < 0 then
              Alcotest.failf "torn response matches no generation: %s" got;
            if !gen < !last then
              Alcotest.failf "generation went backwards: %d after %d" !gen !last;
            last := !gen
      done;
      Domain.join feeder)

(* A TCP host that does not resolve is an error that names it, on both
   sides: the server refuses to listen and a query fails; neither falls
   back to loopback. *)
let test_unresolvable_host () =
  let host = "no.such.host.invalid" in
  let names_host msg =
    let n = String.length host in
    let rec from i =
      i + n <= String.length msg && (String.equal (String.sub msg i n) host || from (i + 1))
    in
    from 0
  in
  (match Server.create ~address:(Server.Tcp (host, 0)) (registry ()) with
  | exception Failure msg ->
      Alcotest.(check bool) ("create names the host: " ^ msg) true (names_host msg)
  | server ->
      Server.close server;
      Alcotest.fail "create listened on an unresolvable host");
  match Server.query ~attempts:1 (Server.Tcp (host, 9)) Protocol.Stats with
  | Error msg -> Alcotest.(check bool) ("query names the host: " ^ msg) true (names_host msg)
  | Ok _ -> Alcotest.fail "a query to an unresolvable host was answered"

let () =
  Alcotest.run "rpi_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "request parsing" `Quick test_request_parsing;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket round trip" `Quick test_socket_round_trip;
          Alcotest.test_case "pipelined order" `Quick test_pipelined_order;
          Alcotest.test_case "admission shed" `Quick test_admission_shed;
          Alcotest.test_case "snapshot never torn" `Quick
            test_snapshot_never_torn;
          Alcotest.test_case "unresolvable host" `Quick test_unresolvable_host;
        ] );
    ]
