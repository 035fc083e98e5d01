(* The incremental engine against its batch oracles: every State report
   must equal the corresponding from-scratch analysis of the same table,
   and Feed's diff/codec must round-trip streams exactly. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module Update = Rpi_bgp.Update
module As_path = Rpi_bgp.As_path
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4
module As_graph = Rpi_topo.As_graph
module Scenario = Rpi_dataset.Scenario
module Export_infer = Rpi_core.Export_infer
module Import_infer = Rpi_core.Import_infer
module Feed = Rpi_ingest.Feed
module State = Rpi_ingest.State
module Render = Rpi_ingest.Render

let asn = Asn.of_int
let p s = Prefix.of_string_exn s
let js = Rpi_json.to_string

(* A small fixed vantage world: AS100's table, neighbours classified by
   the graph, with local, customer, peer and provider routes. *)
let graph () =
  let v = asn 100 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:v ~customer:(asn 10) in
  let g = As_graph.add_p2c g ~provider:(asn 10) ~customer:(asn 11) in
  let g = As_graph.add_p2p g v (asn 20) in
  let g = As_graph.add_p2c g ~provider:(asn 30) ~customer:v in
  let g = As_graph.add_p2c g ~provider:(asn 20) ~customer:(asn 11) in
  g

let route ?(lp = 100) ?peer ~rid path prefix =
  let hops = List.map asn path in
  Route.make ~prefix
    ~next_hop:(Ipv4.of_octets 192 0 2 rid)
    ~as_path:(As_path.of_list hops) ~local_pref:lp
    ~router_id:(Ipv4.of_octets 192 0 2 rid)
    ?peer_as:(Option.map asn peer) ()

let local_route prefix =
  Route.make ~prefix
    ~next_hop:(Ipv4.of_int32_exn 0)
    ~as_path:As_path.empty ~source:Route.Local
    ~router_id:(Ipv4.of_int32_exn 1)
    ()

let base_routes () =
  [
    (* customer-routed prefix of customer 11 (via customer 10) *)
    route ~peer:10 ~rid:1 ~lp:120 [ 10; 11 ] (p "10.11.0.0/16");
    (* same prefix also via peer 20, lower preference *)
    route ~peer:20 ~rid:2 ~lp:90 [ 20; 11 ] (p "10.11.0.0/16");
    (* SA prefix: customer 11 only reachable via peer 20 *)
    route ~peer:20 ~rid:2 ~lp:90 [ 20; 11 ] (p "10.12.0.0/16");
    (* provider route for an unrelated origin *)
    route ~peer:30 ~rid:3 ~lp:80 [ 30; 40 ] (p "40.0.0.0/8");
    (* peer 20's own prefix, announced directly *)
    route ~peer:20 ~rid:2 ~lp:90 [ 20 ] (p "20.0.0.0/8");
    (* the vantage's own prefix *)
    local_route (p "100.64.0.0/16");
  ]

let check_matches_batch ~msg g vantage state =
  let rib = State.rib state in
  Alcotest.(check string)
    (msg ^ ": stats json")
    (js (Render.stats_of_rib rib))
    (js (Render.stats_of_state state));
  let batch_sa =
    Export_infer.analyze g ~provider:vantage
      ~origins:(Export_infer.origins_of_rib rib)
      rib
  in
  Alcotest.(check string)
    (msg ^ ": sa json")
    (js (Render.sa ~viewpoint:"live" batch_sa))
    (js (Render.sa ~viewpoint:"live" (State.sa_report state)));
  Alcotest.(check string)
    (msg ^ ": import json")
    (js (Render.import_pref (Import_infer.analyze g ~vantage rib)))
    (js (Render.import_pref (State.import_report state)))

(* The SA record the state reports for [prefix], if it is selective. *)
let sa_record state prefix =
  List.find_opt
    (fun (r : Export_infer.sa_record) -> Prefix.equal r.Export_infer.prefix prefix)
    (State.sa_report state).Export_infer.sa

let test_state_matches_batch () =
  let g = graph () in
  let vantage = asn 100 in
  let state = State.create ~graph:g ~vantage () in
  let announce r = Update.announce ~from_as:(Option.value ~default:vantage (Option.map Fun.id r.Route.peer_as)) ~to_as:vantage r in
  List.iter (fun r -> State.apply state (announce r)) (base_routes ());
  check_matches_batch ~msg:"after announces" g vantage state;
  (match sa_record state (p "10.12.0.0/16") with
  | Some r -> Alcotest.(check int) "sa via peer 20" 20 (Asn.to_int r.Export_infer.next_hop)
  | None -> Alcotest.fail "10.12.0.0/16 should be selectively announced");
  (* mutate: withdraw the customer route, the prefix flips to SA via 20 *)
  State.apply state
    (Update.withdraw ~from_as:(asn 10) ~to_as:vantage (p "10.11.0.0/16"));
  check_matches_batch ~msg:"after withdraw" g vantage state;
  if Option.is_none (sa_record state (p "10.11.0.0/16")) then
    Alcotest.fail "10.11.0.0/16 should flip to SA once the customer path is gone";
  (* duplicate announce and spurious withdraw are no-ops *)
  let before = js (Render.stats_of_state state) in
  State.apply state
    (Update.announce ~from_as:(asn 20) ~to_as:vantage
       (route ~peer:20 ~rid:2 ~lp:90 [ 20; 11 ] (p "10.12.0.0/16")));
  State.apply state
    (Update.withdraw ~from_as:(asn 77) ~to_as:vantage (p "10.12.0.0/16"));
  Alcotest.(check string) "idempotent faults" before (js (Render.stats_of_state state));
  check_matches_batch ~msg:"after faults" g vantage state;
  (* withdraw the local route through the feed convention *)
  State.apply state (Update.withdraw ~from_as:vantage ~to_as:vantage (p "100.64.0.0/16"));
  check_matches_batch ~msg:"after local withdraw" g vantage state;
  Alcotest.(check bool)
    "local candidates are gone" true
    (Rib.candidates (State.rib state) (p "100.64.0.0/16") = [])

let test_fixed_origins_unreachable () =
  let g = graph () in
  let vantage = asn 100 in
  let origins = [ (asn 11, [ p "10.11.0.0/16"; p "10.13.0.0/16" ]) ] in
  let state = State.create ~graph:g ~vantage ~origins:(State.Fixed origins) () in
  State.apply state
    (Update.announce ~from_as:(asn 10) ~to_as:vantage
       (route ~peer:10 ~rid:1 ~lp:120 [ 10; 11 ] (p "10.11.0.0/16")));
  let report = State.sa_report state in
  let batch =
    Export_infer.analyze g ~provider:vantage ~origins (State.rib state)
  in
  Alcotest.(check string)
    "fixed-origin sa json"
    (js (Render.sa ~viewpoint:"live" batch))
    (js (Render.sa ~viewpoint:"live" report));
  Alcotest.(check int) "absent prefix counted unreachable" 1
    report.Export_infer.unreachable

let test_feed_diff_roundtrip () =
  let vantage = asn 100 in
  let old_rib = Rib.of_routes (base_routes ()) in
  let new_rib =
    Rib.of_routes
      ([
         (* changed attributes on an existing session *)
         route ~peer:10 ~rid:1 ~lp:110 [ 10; 11 ] (p "10.11.0.0/16");
         (* session gone for 10.12/16; new prefix appears *)
         route ~peer:30 ~rid:3 ~lp:80 [ 30; 41 ] (p "41.0.0.0/8");
         route ~peer:20 ~rid:2 ~lp:90 [ 20 ] (p "20.0.0.0/8");
         (* local prefix replaced by a different one *)
         local_route (p "100.65.0.0/16");
       ])
  in
  let stream = Feed.diff ~vantage ~old_rib new_rib in
  let replayed = Feed.apply_all ~vantage stream old_rib in
  Alcotest.(check bool) "diff replays to the target table" true
    (Rib.equal replayed new_rib);
  Alcotest.(check bool) "empty diff on equal tables" true
    (Feed.diff ~vantage ~old_rib:new_rib new_rib = []);
  (* determinism *)
  Alcotest.(check string) "diff is deterministic"
    (Feed.render_stream stream)
    (Feed.render_stream (Feed.diff ~vantage ~old_rib new_rib))

let test_stream_codec () =
  let vantage = asn 100 in
  let stream =
    Feed.diff ~vantage ~old_rib:Rib.empty (Rib.of_routes (base_routes ()))
  in
  let text = Feed.render_stream stream in
  match Feed.parse_stream text with
  | Error e -> Alcotest.failf "parse_stream: %s" e
  | Ok parsed ->
      Alcotest.(check int) "same length" (List.length stream) (List.length parsed);
      Alcotest.(check string) "ndjson round-trips byte-identically" text
        (Feed.render_stream parsed);
      (match Feed.parse_stream "{\"type\":\"announce\"}\n" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed update must not parse");
      (match Feed.parse_stream "not json\n" with
      | Error e ->
          Alcotest.(check bool) "error carries line number" true
            (String.length e > 0 && String.starts_with ~prefix:"line 1" e)
      | Ok _ -> Alcotest.fail "garbage must not parse")

(* The scenario-scale cross-check: replay [table] into a fresh state as
   one Feed.diff stream, then withdraw the route [pick] chooses.  After
   each step the state's SA and import reports must equal the batch
   analyses of its table, and the withdraw must recompute at most its own
   prefix. *)
let check_replay ~msg g ~vantage ~origins ~pick table =
  let state = State.create ~graph:g ~vantage ~origins:(State.Fixed origins) () in
  State.apply_all state (Feed.diff ~vantage ~old_rib:Rib.empty table);
  Alcotest.(check bool) (msg ^ ": replayed table") true (Rib.equal (State.rib state) table);
  let check_reports step =
    let rib = State.rib state in
    Alcotest.(check string)
      (Printf.sprintf "%s %s: sa json" msg step)
      (js (Render.sa ~viewpoint:"own-feed" (Export_infer.analyze g ~provider:vantage ~origins rib)))
      (js (Render.sa ~viewpoint:"own-feed" (State.sa_report state)));
    Alcotest.(check string)
      (Printf.sprintf "%s %s: import json" msg step)
      (js (Render.import_pref (Import_infer.analyze g ~vantage rib)))
      (js (Render.import_pref (State.import_report state)))
  in
  check_reports "replayed";
  let c = State.counters state in
  Alcotest.(check bool) (msg ^ ": work was incremental (one refresh)") true
    (c.State.refreshes >= 1 && c.State.dirty_prefixes = 0);
  let prefix, from_as =
    match List.find_map pick (Rib.prefixes table) with
    | Some found -> found
    | None -> Alcotest.failf "%s: no route to withdraw" msg
  in
  State.apply_all state [ Update.withdraw ~from_as ~to_as:vantage prefix ];
  check_reports "after withdraw";
  let c' = State.counters state in
  Alcotest.(check int) (msg ^ ": one update applied") (c.State.updates_applied + 1)
    c'.State.updates_applied;
  Alcotest.(check bool) (msg ^ ": refresh touched at most the withdrawn prefix") true
    (c'.State.prefixes_recomputed <= c.State.prefixes_recomputed + 1)

(* A provider's own collector feed (no local preference, so its import
   report is empty) and one Looking-Glass table (local preference
   visible, so Table 2 compares prefixes). *)
let test_scenario_replay () =
  let scenario = Scenario.build ~config:Scenario.small_config () in
  let g = scenario.Scenario.graph in
  let collector = scenario.Scenario.collector in
  let origins = Export_infer.origins_of_rib collector in
  let provider =
    match scenario.Scenario.collector_peers with
    | peer :: _ -> peer
    | [] -> Alcotest.fail "scenario has no collector peers"
  in
  let viewpoint = Export_infer.viewpoint_of_feed ~feed:provider collector in
  let first_peered p =
    match Rib.candidates viewpoint p with
    | (r : Route.t) :: _ -> Option.map (fun a -> (p, a)) r.Route.peer_as
    | [] -> None
  in
  check_replay ~msg:"own feed" g ~vantage:provider ~origins ~pick:first_peered viewpoint;
  let lg, table =
    match scenario.Scenario.lg_tables with
    | first :: _ -> first
    | [] -> Alcotest.fail "scenario has no Looking-Glass tables"
  in
  Alcotest.(check bool) "the Looking-Glass table has compared prefixes" true
    ((Import_infer.analyze g ~vantage:lg table).Import_infer.prefixes_compared > 0);
  (* Withdraw a route of a compared prefix, so the import counters move. *)
  let compared_peered p =
    match Import_infer.judge (Import_infer.observations_for g ~vantage:lg table p) with
    | Import_infer.Incomparable -> None
    | Import_infer.Typical | Import_infer.Atypical ->
        List.find_map
          (fun (r : Route.t) -> Option.map (fun a -> (p, a)) r.Route.peer_as)
          (Rib.candidates table p)
  in
  check_replay ~msg:"looking glass" g ~vantage:lg ~origins ~pick:compared_peered table

let () =
  Alcotest.run "rpi_ingest"
    [
      ( "state",
        [
          Alcotest.test_case "matches batch oracles" `Quick test_state_matches_batch;
          Alcotest.test_case "fixed origins" `Quick test_fixed_origins_unreachable;
          Alcotest.test_case "scenario replay" `Quick test_scenario_replay;
        ] );
      ( "feed",
        [
          Alcotest.test_case "diff round-trip" `Quick test_feed_diff_roundtrip;
          Alcotest.test_case "ndjson codec" `Quick test_stream_codec;
        ] );
    ]
