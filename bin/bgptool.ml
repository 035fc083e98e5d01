(* Inspect BGP table dumps: parse either supported format, show summary
   statistics, query prefixes, or infer AS relationships from the paths.

     bgptool stats   table.dump
     bgptool show    table.dump 10.1.0.0/24
     bgptool relinfer table.dump
*)

module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module Asn = Rpi_bgp.Asn
module Prefix = Rpi_net.Prefix
module State = Rpi_ingest.State

let read_table path =
  let ic = open_in path in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  Rpi_mrt.Loader.parse_any text

let stats_cmd json path =
  match read_table path with
  | Error e -> `Error (false, e)
  | Ok rib ->
      let s = State.stats_of_rib rib in
      if json then Rpi_json.to_channel stdout (Rpi_ingest.Render.stats s)
      else begin
        Printf.printf "prefixes: %d\nroutes:   %d\n" s.State.prefixes s.State.routes;
        Printf.printf "origin ASs: %d\n" s.State.origin_ases;
        Printf.printf "feeding sessions: %d\n" s.State.feeding_sessions
      end;
      `Ok ()

let show_cmd path prefix_str =
  match (read_table path, Prefix.of_string prefix_str) with
  | Error e, _ -> `Error (false, e)
  | _, Error e -> `Error (false, e)
  | Ok rib, Ok prefix ->
      print_string (Rpi_mrt.Show_ip_bgp.render_prefix_detail rib prefix);
      `Ok ()

let relinfer_cmd path =
  match read_table path with
  | Error e -> `Error (false, e)
  | Ok rib ->
      let paths =
        Rib.fold
          (fun _ routes acc ->
            List.fold_left
              (fun acc (r : Route.t) ->
                match Rpi_bgp.As_path.to_list r.Route.as_path with
                | [] -> acc
                | hops -> hops :: acc)
              acc routes)
          rib []
      in
      let g = Rpi_relinfer.Gao.infer paths in
      List.iter
        (fun (a, b, rel) ->
          Printf.printf "%s %s %s\n" (Asn.to_label a) (Asn.to_label b)
            (Rpi_topo.Relationship.to_string rel))
        (Rpi_topo.As_graph.to_edges g);
      Printf.eprintf "# %d ASs, %d classified adjacencies\n"
        (Rpi_topo.As_graph.as_count g)
        (Rpi_topo.As_graph.edge_count g);
      `Ok ()

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let sa_cmd json table_path edges_path provider_str =
  let ( let* ) = Result.bind in
  let result =
    let* rib = read_table table_path in
    let* graph = Rpi_topo.As_graph.parse_edges (read_file edges_path) in
    let* provider = Asn.of_string provider_str in
    let origins = Rpi_core.Export_infer.origins_of_rib rib in
    (* If the table is a multi-feed collector dump, narrow to the
       provider's own feed; a single-vantage table passes through.  When
       the provider has no feed at all, fall back to the whole table —
       but say so: SA classification then reflects the collector's
       viewpoint, not the provider's own announcements. *)
    let viewpoint, viewpoint_kind =
      let own = Rpi_core.Export_infer.viewpoint_of_feed ~feed:provider rib in
      if Rib.prefix_count own > 0 then (own, "own-feed")
      else begin
        Printf.eprintf
          "warning: %s has no feed in %s; falling back to the full multi-feed \
           table — SA prefixes are classified from the collector viewpoint, \
           not %s's own best routes\n%!"
          (Asn.to_label provider) table_path (Asn.to_label provider);
        (rib, "multi-feed-fallback")
      end
    in
    let report = Rpi_core.Export_infer.analyze graph ~provider ~origins viewpoint in
    if json then
      Rpi_json.to_channel stdout
        (Rpi_ingest.Render.sa ~viewpoint:viewpoint_kind report)
    else begin
      Printf.printf "provider:          %s\n" (Asn.to_label provider);
      Printf.printf "viewpoint:         %s\n" viewpoint_kind;
      Printf.printf "customers seen:    %d\n" report.Rpi_core.Export_infer.customers_seen;
      Printf.printf "customer prefixes: %d\n" report.Rpi_core.Export_infer.customer_prefixes;
      Printf.printf "SA prefixes:       %d (%.1f%%)\n"
        (List.length report.Rpi_core.Export_infer.sa)
        report.Rpi_core.Export_infer.pct_sa;
      List.iter
        (fun (r : Rpi_core.Export_infer.sa_record) ->
          Printf.printf "SA %s origin %s via %s %s\n"
            (Prefix.to_string r.Rpi_core.Export_infer.prefix)
            (Asn.to_label r.Rpi_core.Export_infer.origin)
            (Rpi_topo.Relationship.to_string r.Rpi_core.Export_infer.via)
            (Asn.to_label r.Rpi_core.Export_infer.next_hop))
        report.Rpi_core.Export_infer.sa
    end;
    Ok ()
  in
  match result with
  | Ok () -> `Ok ()
  | Error e -> `Error (false, e)

let diff_cmd old_path new_path =
  match (read_table old_path, read_table new_path) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok old_rib, Ok new_rib ->
      let d = Rib.diff ~old_rib new_rib in
      Printf.printf "added:      %d prefixes\n" (List.length d.Rib.added);
      Printf.printf "removed:    %d prefixes\n" (List.length d.Rib.removed);
      Printf.printf "re-routed:  %d prefixes\n" (List.length d.Rib.best_changed);
      Printf.printf "unchanged:  %d prefixes\n" d.Rib.unchanged;
      List.iter
        (fun (prefix, old_best, new_best) ->
          let hop r =
            match Option.bind r Route.next_hop_as with
            | Some a -> Asn.to_label a
            | None -> "-"
          in
          Printf.printf "  %s: %s -> %s\n" (Prefix.to_string prefix) (hop old_best)
            (hop new_best))
        d.Rib.best_changed;
      `Ok ()

(* Exit code for a server that answered, but with the overloaded shed
   frame: distinct from parse errors (124) and transport failures so
   scripts can implement their own backoff. *)
let exit_overloaded = 7

let query_cmd connect timeout attempts args =
  match Rpi_serve.Server.address_of_string connect with
  | Error e -> `Error (false, e)
  | Ok address -> begin
      match Rpi_serve.Protocol.request_of_args args with
      | Error e -> `Error (false, e)
      | Ok request -> begin
          match Rpi_serve.Server.query ?timeout ~attempts address request with
          | Error e -> `Error (false, Printf.sprintf "%s: %s" connect e)
          | Ok response when Rpi_serve.Protocol.is_overloaded response ->
              Printf.eprintf
                "bgptool: %s: server overloaded — request shed after %d \
                 attempt%s; back off and retry\n"
                connect attempts
                (if attempts = 1 then "" else "s");
              exit exit_overloaded
          | Ok response -> begin
              (* Snapshot answers carry a table dump; print it raw so the
                 output pipes straight back into `bgptool stats`. *)
              match (request, response) with
              | Rpi_serve.Protocol.Snapshot, Rpi_json.Obj fields
                when List.mem_assoc "dump" fields -> begin
                  match List.assoc "dump" fields with
                  | Rpi_json.String dump ->
                      print_string dump;
                      `Ok ()
                  | _ ->
                      print_endline (Rpi_json.to_string response);
                      `Ok ()
                end
              | _ ->
                  print_endline (Rpi_json.to_string response);
                  (match response with
                  | Rpi_json.Obj (("error", Rpi_json.String msg) :: _) ->
                      `Error (false, msg)
                  | _ -> `Ok ())
            end
        end
    end

open Cmdliner

let table_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TABLE" ~doc:"Table dump file.")

let prefix_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"PREFIX" ~doc:"CIDR prefix.")

let json_arg =
  let doc = "Emit the report as a single JSON object instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let cmds =
  [
    Cmd.v (Cmd.info "stats" ~doc:"Summary statistics of a table dump")
      Term.(ret (const stats_cmd $ json_arg $ table_arg));
    Cmd.v
      (Cmd.info "show" ~doc:"Per-prefix detail (show ip bgp <prefix>)")
      Term.(ret (const show_cmd $ table_arg $ prefix_arg));
    Cmd.v
      (Cmd.info "relinfer" ~doc:"Infer AS relationships from the table's paths")
      Term.(ret (const relinfer_cmd $ table_arg));
    (let edges_arg =
       Arg.(
         required
         & pos 1 (some file) None
         & info [] ~docv:"EDGES" ~doc:"AS-relationship edge list (bgptool relinfer/gentopo output).")
     in
     let provider_arg =
       Arg.(required & pos 2 (some string) None & info [] ~docv:"AS" ~doc:"Provider AS.")
     in
     Cmd.v
       (Cmd.info "sa" ~doc:"Infer selectively-announced prefixes from a provider's viewpoint")
       Term.(ret (const sa_cmd $ json_arg $ table_arg $ edges_arg $ provider_arg)));
    (let new_arg =
       Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"Newer table dump.")
     in
     Cmd.v
       (Cmd.info "diff" ~doc:"Day-over-day delta between two table dumps")
       Term.(ret (const diff_cmd $ table_arg $ new_arg)));
    (let connect_arg =
       Arg.(
         value
         & opt string "unix:/tmp/rpiserved.sock"
         & info [ "connect" ] ~docv:"ADDR" ~doc:"rpiserved address (unix:PATH or HOST:PORT).")
     in
     let timeout_arg =
       Arg.(
         value
         & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-attempt socket timeout (default: wait forever).")
     in
     let attempts_arg =
       Arg.(
         value & opt int 3
         & info [ "attempts" ] ~docv:"N"
             ~doc:
               "Reconnect-with-backoff budget: transient failures \
                (connection refused/reset, server draining, timeout, \
                overloaded shed frame) retry on a fresh connection with \
                exponential backoff up to $(docv) times.")
     in
     let query_args =
       Arg.(
         non_empty & pos_all string []
         & info [] ~docv:"QUERY"
             ~doc:
               "sa-status $(i,ASN) [$(i,PREFIX)] | import-pref $(i,ASN) | stats \
                | snapshot | metrics")
     in
     Cmd.v
       (Cmd.info "query" ~doc:"Query a running rpiserved over its socket")
       Term.(
         ret (const query_cmd $ connect_arg $ timeout_arg $ attempts_arg
              $ query_args)));
  ]

let () =
  let doc = "Inspect and analyze BGP table dumps" in
  exit (Cmd.eval (Cmd.group (Cmd.info "bgptool" ~doc) cmds))
