(* rpiserved: the live routing-policy query daemon.

     rpiserved --listen unix:/tmp/rpiserved.sock          # replay + serve
     rpiserved --listen 127.0.0.1:4790 --epoch-ms 500
     rpiserved --replay updates.ndjson                    # NDJSON feed
     rpiserved --selftest --epochs 31                     # no socket: step
                                                          # every epoch and
                                                          # cross-check
                                                          # against batch

   The daemon plans the persistence-study timeline (Figs. 6-7) as
   per-epoch update streams, serves queries while a background domain
   replays them, and drains cleanly on SIGTERM/SIGINT.  Query it with
   `bgptool query --connect <addr> <cmd>`.

   Exit codes: 0 clean, 1 selftest mismatch or replay-file error. *)

module Server = Rpi_serve.Server
module Replay = Rpi_serve.Replay
module Registry = Rpi_serve.Registry
module State = Rpi_ingest.State
module Feed = Rpi_ingest.Feed
module Asn = Rpi_bgp.Asn
module Scenario = Rpi_dataset.Scenario

let log_line json_log json =
  if json_log then print_endline (Rpi_json.to_string json)
  else begin
    match json with
    | Rpi_json.Obj fields ->
        let str name =
          match List.assoc_opt name fields with
          | Some (Rpi_json.String s) -> s
          | Some (Rpi_json.Int i) -> string_of_int i
          | Some (Rpi_json.Bool b) -> string_of_bool b
          | _ -> "?"
        in
        Printf.printf "[worker %s] %s ok=%s %sus\n%!" (str "worker") (str "cmd")
          (str "ok") (str "elapsed_us")
    | _ -> ()
  end

let install_drain_handler server =
  let handler = Sys.Signal_handle (fun _ -> Server.shutdown server) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

(* Read an NDJSON update stream and feed it to a lone collector state in
   [chunk]-update batches, one batch per epoch tick. *)
let replay_file_registry path =
  let read_all () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Feed.parse_stream (read_all ()) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok updates ->
      let graph = Rpi_topo.As_graph.empty in
      let collector =
        State.create ~graph ~vantage:Replay.collector_label ()
      in
      Ok (Registry.create ~collector ~vantages:[], updates)

let chunks n list =
  let rec go acc current count = function
    | [] ->
        List.rev (match current with [] -> acc | _ -> List.rev current :: acc)
    | x :: rest ->
        if count = n then go (List.rev current :: acc) [ x ] 1 rest
        else go acc (x :: current) (count + 1) rest
  in
  go [] [] 0 list

let serve_with_feeder ~listen ~jobs ~json_log ~config ~feeder registry =
  match Server.address_of_string listen with
  | Error e ->
      Printf.eprintf "rpiserved: %s\n" e;
      2
  | Ok address -> begin
      match Server.create ~log:(log_line json_log) ~config ~address registry with
      | exception Failure e ->
          (* An unresolvable listen host. *)
          Printf.eprintf "rpiserved: %s\n" e;
          2
      | server ->
          install_drain_handler server;
          Printf.printf "rpiserved: listening on %s\n%!"
            (Server.address_to_string address);
          let feeder_domain =
            Domain.spawn (fun () -> feeder ~stop:(fun () -> Server.draining server))
          in
          Server.serve ?jobs server;
          Domain.join feeder_domain;
          let m = Server.metrics server in
          Server.close server;
          Printf.printf
            "rpiserved: drained (%d connections, %d requests, %d errors, %d sheds, \
             %.1f ms busy)\n"
            m.Server.connections m.Server.requests m.Server.errors m.Server.sheds
            (1000.0 *. m.Server.busy_s);
          0
    end

let run listen replay_file epochs epoch_ms jobs json_log vantages selftest
    max_conns max_queued =
  let config =
    { Rpi_serve.Eventloop.max_connections = max_conns; max_turn_requests = max_queued }
  in
  let vantages =
    match vantages with
    | [] -> None
    | labels -> begin
        match
          List.fold_left
            (fun acc label ->
              Result.bind acc (fun asns ->
                  Result.map (fun a -> a :: asns) (Asn.of_string label)))
            (Ok []) labels
        with
        | Ok asns -> Some (List.rev asns)
        | Error e ->
            Printf.eprintf "rpiserved: %s\n" e;
            exit 2
      end
  in
  if selftest then begin
    let plan = Replay.plan ?vantages ~epochs () in
    Printf.printf "rpiserved: selftest over %d epochs, vantages %s\n%!"
      (Replay.length plan)
      (String.concat ", " (List.map Asn.to_label plan.Replay.vantages));
    match Replay.selftest plan with
    | Ok r ->
        Printf.printf "rpiserved: selftest OK (%d epochs, %d comparisons)\n"
          r.Replay.epochs_checked r.Replay.comparisons;
        0
    | Error e ->
        Printf.eprintf "rpiserved: selftest FAILED: %s\n" e;
        1
  end
  else begin
    match replay_file with
    | Some path -> begin
        match replay_file_registry path with
        | Error e ->
            Printf.eprintf "rpiserved: %s\n" e;
            1
        | Ok (registry, updates) ->
            let batches = chunks 256 updates in
            let feeder ~stop =
              List.iter
                (fun batch ->
                  if not (stop ()) then begin
                    State.apply_all registry.Registry.collector batch;
                    Registry.publish registry;
                    Unix.sleepf (float_of_int epoch_ms /. 1000.0)
                  end)
                batches
            in
            serve_with_feeder ~listen ~jobs ~json_log ~config ~feeder registry
      end
    | None ->
        let plan = Replay.plan ?vantages ~epochs () in
        Printf.printf "rpiserved: %d epochs planned, vantages %s\n%!"
          (Replay.length plan)
          (String.concat ", " (List.map Asn.to_label plan.Replay.vantages));
        let feeder ~stop =
          Replay.run ~epoch_ms ~stop
            ~on_epoch:(fun i -> Printf.printf "rpiserved: epoch %d applied\n%!" i)
            plan
        in
        serve_with_feeder ~listen ~jobs ~json_log ~config ~feeder
          (Replay.registry plan)
  end

open Cmdliner

let listen_t =
  Arg.(
    value
    & opt string "unix:/tmp/rpiserved.sock"
    & info [ "listen" ] ~docv:"ADDR" ~doc:"unix:PATH or HOST:PORT to listen on.")

let replay_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay an NDJSON update stream into a lone collector state \
           instead of the synthetic timeline.")

let epochs_t =
  Arg.(
    value & opt int 31
    & info [ "epochs" ] ~docv:"N" ~doc:"Timeline epochs to plan (daily churn).")

let epoch_ms_t =
  Arg.(
    value & opt int 1000
    & info [ "epoch-ms" ] ~docv:"MS" ~doc:"Delay between replayed epochs.")

let jobs_t = Rpi_pool.Jobs.term

let json_t =
  Arg.(value & flag & info [ "json" ] ~doc:"Access log as NDJSON on stdout.")

let vantage_t =
  Arg.(
    value & opt_all string []
    & info [ "vantage" ] ~docv:"ASN"
        ~doc:"Serve this vantage (repeatable; default: first two collector peers).")

let max_conns_t =
  Arg.(
    value
    & opt int Rpi_serve.Eventloop.default_config.Rpi_serve.Eventloop.max_connections
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Live-connection ceiling; admissions beyond it are answered with \
           the overloaded error frame and closed (load shedding).")

let max_queued_t =
  Arg.(
    value
    & opt int
        Rpi_serve.Eventloop.default_config.Rpi_serve.Eventloop.max_turn_requests
    & info [ "max-queued" ] ~docv:"N"
        ~doc:
          "Requests dispatched per event-loop turn; pipelined frames beyond \
           it are shed with the overloaded error frame instead of queueing.")

let selftest_t =
  Arg.(
    value & flag
    & info [ "selftest" ]
        ~doc:
          "No socket: step every epoch and cross-check incremental state \
           against the batch recompute, byte-for-byte.")

let cmd =
  let doc = "live routing-policy query daemon over replayed update streams" in
  Cmd.v
    (Cmd.info "rpiserved" ~doc)
    Term.(
      const run $ listen_t $ replay_t $ epochs_t $ epoch_ms_t $ jobs_t $ json_t
      $ vantage_t $ selftest_t $ max_conns_t $ max_queued_t)

let () = exit (Cmd.eval' cmd)
