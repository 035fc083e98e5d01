module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Prefix = Rpi_net.Prefix
module Relationship = Rpi_topo.Relationship
module Export_infer = Rpi_core.Export_infer
module Import_infer = Rpi_core.Import_infer
module Peer_export = Rpi_core.Peer_export

let stats (s : State.stats) =
  Rpi_json.Obj
    [
      ("prefixes", Rpi_json.Int s.State.prefixes);
      ("routes", Rpi_json.Int s.State.routes);
      ("origin_ases", Rpi_json.Int s.State.origin_ases);
      ("feeding_sessions", Rpi_json.Int s.State.feeding_sessions);
    ]

let stats_of_rib rib = stats (State.stats_of_rib rib)
let stats_of_state state = stats (State.stats state)

let sa ~viewpoint (report : Export_infer.report) =
  Rpi_json.Obj
    [
      ("provider", Rpi_json.String (Asn.to_label report.Export_infer.provider));
      ("viewpoint", Rpi_json.String viewpoint);
      ("customers_seen", Rpi_json.Int report.Export_infer.customers_seen);
      ("customer_prefixes", Rpi_json.Int report.Export_infer.customer_prefixes);
      ("sa_count", Rpi_json.Int (List.length report.Export_infer.sa));
      ("pct_sa", Rpi_json.Float report.Export_infer.pct_sa);
      ( "sa",
        Rpi_json.List
          (List.map
             (fun (r : Export_infer.sa_record) ->
               Rpi_json.Obj
                 [
                   ("prefix", Rpi_json.String (Prefix.to_string r.Export_infer.prefix));
                   ("origin", Rpi_json.String (Asn.to_label r.Export_infer.origin));
                   ( "via",
                     Rpi_json.String (Relationship.to_string r.Export_infer.via) );
                   ("next_hop", Rpi_json.String (Asn.to_label r.Export_infer.next_hop));
                 ])
             report.Export_infer.sa) );
    ]

let sa_status ~provider ~prefix klass =
  let base =
    [
      ("provider", Rpi_json.String (Asn.to_label provider));
      ("prefix", Rpi_json.String (Prefix.to_string prefix));
    ]
  in
  Rpi_json.Obj
    (base
    @
    match klass with
    | Export_infer.Customer_route -> [ ("status", Rpi_json.String "customer-route") ]
    | Export_infer.Unreachable -> [ ("status", Rpi_json.String "unreachable") ]
    | Export_infer.Sa_prefix { next_hop; via } ->
        [
          ("status", Rpi_json.String "selective");
          ("next_hop", Rpi_json.String (Asn.to_label next_hop));
          ("via", Rpi_json.String (Relationship.to_string via));
        ])

let import_pref (report : Import_infer.report) =
  Rpi_json.Obj
    [
      ("vantage", Rpi_json.String (Asn.to_label report.Import_infer.vantage));
      ("prefixes_total", Rpi_json.Int report.Import_infer.prefixes_total);
      ("prefixes_compared", Rpi_json.Int report.Import_infer.prefixes_compared);
      ("typical", Rpi_json.Int report.Import_infer.typical);
      ("atypical", Rpi_json.Int report.Import_infer.atypical);
      ("pct_typical", Rpi_json.Float report.Import_infer.pct_typical);
      ( "class_values",
        Rpi_json.Obj
          (List.map
             (fun (rel, values) ->
               ( Relationship.to_string rel,
                 Rpi_json.List (List.map (fun v -> Rpi_json.Int v) values) ))
             report.Import_infer.class_values) );
    ]

let peer_export (report : Peer_export.report) =
  Rpi_json.Obj
    [
      ("vantage", Rpi_json.String (Asn.to_label report.Peer_export.vantage));
      ("peers_total", Rpi_json.Int report.Peer_export.peers_total);
      ("peers_announcing", Rpi_json.Int report.Peer_export.peers_announcing);
      ("pct_announcing", Rpi_json.Float report.Peer_export.pct_announcing);
      ( "peers",
        Rpi_json.List
          (List.map
             (fun (p : Peer_export.peer_profile) ->
               Rpi_json.Obj
                 [
                   ("peer", Rpi_json.String (Asn.to_label p.Peer_export.peer));
                   ("own_prefixes", Rpi_json.Int p.Peer_export.own_prefixes);
                   ("direct", Rpi_json.Int p.Peer_export.direct);
                   ("announces_all", Rpi_json.Bool p.Peer_export.announces_all);
                 ])
             report.Peer_export.peers) );
    ]
