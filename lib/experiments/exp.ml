module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Tier = Rpi_topo.Tier
module Prefix = Rpi_net.Prefix
module Prefix_set = Rpi_net.Prefix_set
module Scenario = Rpi_dataset.Scenario
module Ground_truth = Rpi_dataset.Ground_truth
module Import_infer = Rpi_core.Import_infer
module Nexthop = Rpi_core.Nexthop_consistency
module Export_infer = Rpi_core.Export_infer
module Sa_verify = Rpi_core.Sa_verify
module Sa_causes = Rpi_core.Sa_causes
module Homing = Rpi_core.Homing
module Persistence = Rpi_core.Persistence
module Peer_export = Rpi_core.Peer_export
module Community_verify = Rpi_core.Community_verify
module Irr_import = Rpi_core.Irr_import
module Table = Rpi_stats.Table
module Series = Rpi_stats.Series
module Dist = Rpi_stats.Dist

type outcome = {
  id : string;
  title : string;
  rendered : string;
  metrics : (string * float) list;
  tables : Table.t list;
}

type t = { id : string; title : string; cost : float; run : Context.t -> outcome }

let mk ~id ~title ?(metrics = []) ?(tables = []) rendered =
  { id; title; rendered; metrics; tables }

let fi = float_of_int

let header id paper =
  Printf.sprintf "=== %s ===\nPaper reports: %s\n" id paper

(* Synthetic "location" flavour for Table 1, in the paper's proportions. *)
let region_of asn =
  match Asn.to_int asn * 2654435761 land 0xFF mod 10 with
  | 0 | 1 | 2 | 3 | 4 -> "NA"
  | 5 | 6 | 7 | 8 -> "Eu"
  | _ -> "Au/As"

(* The per-provider SA analysis is memoized in the context (several tables
   reuse it) behind a mutex, so experiments sharing a context may run on
   concurrent domains. *)
let sa_view = Context.sa_view
let sa_report = Context.sa_report

(* --- Table 1 --- *)

let table1 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let g = s.Scenario.graph in
  let tiers = Tier.classify g in
  let t = Table.create [ ("AS", Table.Left); ("role", Table.Left); ("degree", Table.Right);
                         ("tier", Table.Right); ("location", Table.Left) ] in
  Table.add_row t
    [
      "collector";
      Printf.sprintf "RouteViews-style, %d peers" (List.length s.Scenario.collector_peers);
      "-"; "-"; "-";
    ];
  List.iter
    (fun a ->
      Table.add_row t
        [
          Asn.to_label a;
          "looking-glass";
          Table.cell_int (As_graph.degree g a);
          (match Asn.Map.find_opt a tiers with
          | Some tier -> Table.cell_int tier
          | None -> "?");
          region_of a;
        ])
    s.Scenario.lg_ases;
  mk ~id:"table1" ~title:"data sources"
    ~metrics:
      [
        ("ases", fi (As_graph.as_count g));
        ("edges", fi (As_graph.edge_count g));
        ("collector_prefixes", fi (Rib.prefix_count s.Scenario.collector));
        ("collector_peers", fi (List.length s.Scenario.collector_peers));
        ("lg_vantages", fi (List.length s.Scenario.lg_ases));
      ]
    ~tables:[ t ]
    (header "Table 1" "68 tables: Oregon RouteViews (56 peers) + 15 Looking Glass ASs, degrees 14..1330"
    ^ Table.render t
    ^ Printf.sprintf "Synthetic dataset: %d ASs, %d edges, %d prefixes at the collector.\n"
        (As_graph.as_count g) (As_graph.edge_count g)
        (Rib.prefix_count s.Scenario.collector))

(* --- Table 2 --- *)

let table2 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let t =
    Table.create
      [ ("AS", Table.Left); ("% typical local pref", Table.Right);
        ("prefixes compared", Table.Right) ]
  in
  let pcts =
    List.map
      (fun (a, rib) ->
        let r = Import_infer.analyze ctx.Context.corrected ~vantage:a rib in
        Table.add_row t
          [
            Asn.to_label a;
            Table.cell_pct ~decimals:3 r.Import_infer.pct_typical;
            Table.cell_int r.Import_infer.prefixes_compared;
          ];
        r.Import_infer.pct_typical)
      s.Scenario.lg_tables
  in
  mk ~id:"table2" ~title:"typical local preference (BGP tables)"
    ~metrics:
      [
        ("vantages", fi (List.length pcts));
        ("pct_typical_min", Option.value ~default:0.0 (Dist.min_value pcts));
        ("pct_typical_median", Dist.median pcts);
        ("pct_typical_max", Option.value ~default:0.0 (Dist.max_value pcts));
      ]
    ~tables:[ t ]
    (header "Table 2" "typical local preference on 94.3%..100% of prefixes for 15 ASs"
    ^ Table.render t
    ^ Printf.sprintf "Measured: min %.2f%%, median %.2f%%, max %.2f%%.\n"
        (Option.value ~default:0.0 (Dist.min_value pcts))
        (Dist.median pcts)
        (Option.value ~default:0.0 (Dist.max_value pcts)))

(* --- Table 3 --- *)

let table3 (ctx : Context.t) =
  let reports = Irr_import.analyze_db ctx.Context.corrected ctx.Context.irr in
  let g = ctx.Context.scenario.Scenario.graph in
  let sorted =
    List.sort
      (fun (a : Irr_import.report) b ->
        Int.compare (As_graph.degree g a.Irr_import.asn) (As_graph.degree g b.Irr_import.asn))
      reports
  in
  let shown = List.filteri (fun i _ -> i < 62) sorted in
  let t =
    Table.create
      [ ("AS", Table.Left); ("degree", Table.Right); ("% typical", Table.Right) ]
  in
  List.iter
    (fun (r : Irr_import.report) ->
      Table.add_row t
        [
          Asn.to_label r.Irr_import.asn;
          Table.cell_int (As_graph.degree g r.Irr_import.asn);
          Table.cell_pct ~decimals:2 r.Irr_import.pct_typical;
        ])
    shown;
  let pcts = List.map (fun (r : Irr_import.report) -> r.Irr_import.pct_typical) sorted in
  mk ~id:"table3" ~title:"typical local preference (IRR)"
    ~metrics:
      [
        ("objects", fi (List.length sorted));
        ("pct_typical_min", Option.value ~default:0.0 (Dist.min_value pcts));
        ("pct_typical_median", if pcts = [] then 0.0 else Dist.median pcts);
        ("pct_typical_max", Option.value ~default:0.0 (Dist.max_value pcts));
      ]
    ~tables:[ t ]
    (header "Table 3"
       "typical local preference for 62 well-connected ASs from the IRR, 80%..100%"
    ^ Table.render t
    ^ Printf.sprintf
        "Measured over %d fresh, well-connected aut-num objects: min %.1f%%, median %.1f%%, max %.1f%%.\n"
        (List.length sorted)
        (Option.value ~default:0.0 (Dist.min_value pcts))
        (if pcts = [] then 0.0 else Dist.median pcts)
        (Option.value ~default:0.0 (Dist.max_value pcts)))

(* --- Table 4 --- *)

let table4 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let t =
    Table.create
      [ ("AS", Table.Left); ("neighbors checked", Table.Right); ("% verified", Table.Right) ]
  in
  let pcts =
    List.filter_map
      (fun (a, rib) ->
        let r = Community_verify.verify ~vantage:a ~inferred:ctx.Context.inferred rib in
        if r.Community_verify.neighbors_checked = 0 then None
        else begin
          Table.add_row t
            [
              Asn.to_label a;
              Table.cell_int r.Community_verify.neighbors_checked;
              Table.cell_pct ~decimals:2 r.Community_verify.pct_verified;
            ];
          Some r.Community_verify.pct_verified
        end)
      s.Scenario.lg_tables
  in
  mk ~id:"table4" ~title:"relationship verification via communities"
    ~metrics:
      [
        ("vantages", fi (List.length pcts));
        ("pct_verified_median", if pcts = [] then 0.0 else Dist.median pcts);
      ]
    ~tables:[ t ]
    (header "Table 4"
       "94.1%..99.55% of the AS relationships of 9 ASs verified via community tags"
    ^ Table.render t
    ^ Printf.sprintf "Measured: median %.2f%% across %d vantages.\n"
        (if pcts = [] then 0.0 else Dist.median pcts)
        (List.length pcts))

(* --- Table 5 --- *)

let table5 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let providers =
    (* The collector-visible providers: Tier-1 feeds first, then the LG
       Tier-2s, mirroring the paper's 16 ASs. *)
    let tier1 = s.Scenario.topo.Rpi_topo.Gen.tier1 in
    let lg_t2 = List.filter (fun a -> not (List.mem a tier1)) s.Scenario.lg_ases in
    tier1 @ List.filteri (fun i _ -> i < 6) lg_t2
  in
  let t =
    Table.create
      [ ("AS", Table.Left); ("customer prefixes", Table.Right); ("SA prefixes", Table.Right);
        ("% SA", Table.Right) ]
  in
  let pcts =
    List.map
      (fun provider ->
        let r = sa_report ctx provider in
        Table.add_row t
          [
            Asn.to_label provider;
            Table.cell_int r.Export_infer.customer_prefixes;
            Table.cell_int (List.length r.Export_infer.sa);
            Table.cell_pct r.Export_infer.pct_sa;
          ];
        r.Export_infer.pct_sa)
      providers
  in
  mk ~id:"table5" ~title:"SA-prefix share per provider"
    ~metrics:
      [
        ("providers", fi (List.length providers));
        ("pct_sa_mean", if pcts = [] then 0.0 else Dist.mean pcts);
        ("pct_sa_max", Option.value ~default:0.0 (Dist.max_value pcts));
      ]
    ~tables:[ t ]
    (header "Table 5" "SA prefixes at 16 ASs: 0%..48.6% (Tier-1s typically 14%..32%)"
    ^ Table.render t)

(* --- Table 6 --- *)

let table6 (ctx : Context.t) =
  let g = ctx.Context.corrected in
  let focus = ctx.Context.focus_tier1 in
  let is_common_customer origin =
    List.for_all (fun p -> Rpi_topo.Paths.is_customer g ~provider:p origin) focus
  in
  let rows =
    List.filter_map
      (fun (origin, prefixes) ->
        if (not (is_common_customer origin)) || List.length prefixes < 2 then None
        else begin
          let sa_for_all prefix =
            List.for_all
              (fun provider ->
                let viewpoint = fst (sa_view ctx provider) in
                match Export_infer.classify_prefix g ~provider viewpoint prefix with
                | Export_infer.Sa_prefix _ -> true
                | Export_infer.Customer_route | Export_infer.Unreachable -> false)
              focus
          in
          let sa_count = List.length (List.filter sa_for_all prefixes) in
          Some (origin, List.length prefixes, sa_count)
        end)
      ctx.Context.collector_origins
  in
  (* The paper picks customers originating a significant number of
     prefixes and showing SA behaviour; rank by SA count, then size. *)
  let top =
    List.sort
      (fun (_, n1, sa1) (_, n2, sa2) ->
        match Int.compare sa2 sa1 with
        | 0 -> Int.compare n2 n1
        | c -> c)
      rows
    |> List.filteri (fun i _ -> i < 8)
  in
  let t =
    Table.create
      [ ("Customer", Table.Left); ("# prefixes", Table.Right);
        ("# SA for all three", Table.Right); ("%", Table.Right) ]
  in
  List.iter
    (fun (origin, n, sa) ->
      Table.add_row t
        [
          Asn.to_label origin;
          Table.cell_int n;
          Table.cell_int sa;
          Table.cell_pct (100.0 *. float_of_int sa /. float_of_int (max 1 n));
        ])
    top;
  let shares =
    List.map (fun (_, n, sa) -> 100.0 *. fi sa /. fi (max 1 n)) top
  in
  mk ~id:"table6" ~title:"per-customer SA share"
    ~metrics:
      [
        ("customers", fi (List.length top));
        ("pct_sa_mean", if shares = [] then 0.0 else Dist.mean shares);
        ("pct_sa_max", Option.value ~default:0.0 (Dist.max_value shares));
      ]
    ~tables:[ t ]
    (header "Table 6"
       "8 customers below AS1+AS3549+AS7018 with 17%..97% of their prefixes SA"
    ^ Table.render t)

(* --- Table 7 --- *)

let table7 (ctx : Context.t) =
  let t =
    Table.create
      [ ("Provider", Table.Left); ("# SA prefixes", Table.Right); ("% verified", Table.Right) ]
  in
  let pcts =
    List.map
      (fun provider ->
        let sa = (sa_report ctx provider).Export_infer.sa in
        let r =
          Sa_verify.verify ctx.Context.corrected ctx.Context.path_index ~provider sa
        in
        Table.add_row t
          [
            Asn.to_label provider;
            Table.cell_int r.Sa_verify.total;
            Table.cell_pct r.Sa_verify.pct_verified;
          ];
        r.Sa_verify.pct_verified)
      ctx.Context.focus_tier1
  in
  (* Oracle cross-check: are inferred SA prefixes actually SA per the
     engine state? *)
  let oracle_checked, oracle_correct =
    List.fold_left
      (fun (checked, correct) provider ->
        List.fold_left
          (fun (checked, correct) (r : Export_infer.sa_record) ->
            match
              Ground_truth.expected_sa ctx.Context.scenario ~provider
                r.Export_infer.prefix
            with
            | Some true -> (checked + 1, correct + 1)
            | Some false -> (checked + 1, correct)
            | None -> (checked, correct))
          (checked, correct)
          (sa_report ctx provider).Export_infer.sa)
      (0, 0) ctx.Context.focus_tier1
  in
  mk ~id:"table7" ~title:"SA-prefix verification"
    ~metrics:
      [
        ("pct_verified_mean", if pcts = [] then 0.0 else Dist.mean pcts);
        ("oracle_checked", fi oracle_checked);
        ("oracle_pct", Dist.pct (oracle_correct, oracle_checked));
      ]
    ~tables:[ t ]
    (header "Table 7" "95%..97.6% of SA prefixes verified for AS1, AS3549, AS7018"
    ^ Table.render t
    ^ Printf.sprintf "Oracle: %d/%d inferred SA prefixes confirmed against engine state (%.1f%%).\n"
        oracle_correct oracle_checked
        (Dist.pct (oracle_correct, oracle_checked)))

(* --- Table 8 --- *)

let table8 (ctx : Context.t) =
  let t =
    Table.create
      [ ("Provider", Table.Left); ("multihomed", Table.Right); ("single-homed", Table.Right);
        ("% multihomed", Table.Right) ]
  in
  let pcts =
    List.map
      (fun provider ->
        let sa = (sa_report ctx provider).Export_infer.sa in
        let r = Homing.analyze ctx.Context.corrected ~provider sa in
        Table.add_row t
          [
            Asn.to_label provider;
            Table.cell_int r.Homing.multihomed;
            Table.cell_int r.Homing.single_homed;
            Table.cell_pct r.Homing.pct_multihomed;
          ];
        r.Homing.pct_multihomed)
      ctx.Context.focus_tier1
  in
  mk ~id:"table8" ~title:"multihoming of SA origins"
    ~metrics:
      [
        ("providers", fi (List.length pcts));
        ("pct_multihomed_mean", if pcts = [] then 0.0 else Dist.mean pcts);
      ]
    ~tables:[ t ]
    (header "Table 8" "~75% of ASs behind SA prefixes are multihomed, ~25% single-homed"
    ^ Table.render t)

(* --- Table 9 --- *)

let table9 (ctx : Context.t) =
  let t =
    Table.create
      [ ("Provider", Table.Left); ("# SA", Table.Right); ("# splitting", Table.Right);
        ("# aggregable", Table.Right) ]
  in
  let totals =
    List.map
      (fun provider ->
        let viewpoint, report = sa_view ctx provider in
        let sa = report.Export_infer.sa in
        let split = Sa_causes.splitting viewpoint sa in
        let agg = Sa_causes.aggregable viewpoint sa in
        Table.add_row t
          [
            Asn.to_label provider;
            Table.cell_int (List.length sa);
            Table.cell_int (List.length split);
            Table.cell_int (List.length agg);
          ];
        (List.length sa, List.length split, List.length agg))
      ctx.Context.focus_tier1
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 totals in
  mk ~id:"table9" ~title:"splitting/aggregation vs SA"
    ~metrics:
      [
        ("sa_total", fi (sum (fun (a, _, _) -> a)));
        ("splitting_total", fi (sum (fun (_, b, _) -> b)));
        ("aggregable_total", fi (sum (fun (_, _, c) -> c)));
      ]
    ~tables:[ t ]
    (header "Table 9"
       "splitting (63..127) and aggregable (104..218) prefixes are tiny shares of SA totals (3431..9120)"
    ^ Table.render t
    ^ "Both causes are an order of magnitude below the SA count: selective announcing dominates.\n")

(* --- Table 10 --- *)

let table10 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let t =
    Table.create
      [ ("AS", Table.Left); ("peers with visible prefixes", Table.Right);
        ("% announcing all directly", Table.Right) ]
  in
  let pcts =
    List.filter_map
      (fun vantage ->
        match Scenario.lg_table s vantage with
        | None -> None
        | Some rib ->
            let r =
              Peer_export.analyze ctx.Context.corrected ~vantage
                ~reference:s.Scenario.collector rib
            in
            Table.add_row t
              [
                Asn.to_label vantage;
                Table.cell_int r.Peer_export.peers_total;
                Table.cell_pct r.Peer_export.pct_announcing;
              ];
            Some r.Peer_export.pct_announcing)
      ctx.Context.focus_tier1
  in
  mk ~id:"table10" ~title:"peer export completeness"
    ~metrics:
      [
        ("vantages", fi (List.length pcts));
        ("pct_announcing_mean", if pcts = [] then 0.0 else Dist.mean pcts);
      ]
    ~tables:[ t ]
    (header "Table 10" "86%, 100%, 89% of peers announce their own prefixes directly"
    ^ Table.render t)

(* --- Case 3 --- *)

let case3 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let t =
    Table.create
      [ ("Provider", Table.Left); ("announce", Table.Right);
        ("withhold", Table.Right); ("undetermined", Table.Right);
        ("% announce", Table.Right) ]
  in
  let pcts =
    List.map
      (fun provider ->
        let viewpoint, report = sa_view ctx provider in
        let sa = report.Export_infer.sa in
        let r =
          Sa_causes.analyze ctx.Context.corrected ~viewpoint
            ~paths_of:(Context.paths_for_prefix ctx)
            ~feeds:s.Scenario.collector_peers ~provider sa
        in
        Table.add_row t
          [
            Asn.to_label provider;
            Table.cell_int r.Sa_causes.case3_announce;
            Table.cell_int r.Sa_causes.case3_withhold;
            Table.cell_int r.Sa_causes.case3_undetermined;
            Table.cell_pct r.Sa_causes.pct_announce;
          ];
        r.Sa_causes.pct_announce)
      ctx.Context.focus_tier1
  in
  mk ~id:"case3" ~title:"announce/withhold split to direct providers"
    ~metrics:
      [
        ("providers", fi (List.length pcts));
        ("pct_announce_mean", if pcts = [] then 0.0 else Dist.mean pcts);
      ]
    ~tables:[ t ]
    (header "Case 3 (Sec 5.1.5)"
       "~21% of SA prefixes announced to the failing direct provider (the community mechanism), ~79% withheld (AS1)"
    ^ Table.render t)

(* --- Fig. 2 --- *)

let fig2 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let t =
    Table.create
      [ ("AS", Table.Left); ("% prefixes with next-hop-based LP", Table.Right);
        ("single-valued neighbors", Table.Right) ]
  in
  let lg_pcts =
    List.map
      (fun (a, rib) ->
        let r = Nexthop.analyze rib in
        Table.add_row t
          [
            Asn.to_label a;
            Table.cell_pct ~decimals:2 r.Nexthop.pct_nexthop_based;
            Table.cell_pct ~decimals:1 r.Nexthop.pct_single_valued_neighbors;
          ];
        r.Nexthop.pct_nexthop_based)
      s.Scenario.lg_tables
  in
  (* (b): 30 emulated backbone routers of AS7018. *)
  let as7018 = Asn.of_int 7018 in
  let router_part, router_tables, router_metrics =
    match Scenario.lg_table s as7018 with
    | None -> ("AS7018 not in this scenario; skipping the per-router view.\n", [], [])
    | Some _ ->
        let policy = Scenario.policy_of s as7018 in
        let views =
          Rpi_sim.Vantage.router_views ~policy ~vantage:as7018 ~routers:30
            s.Scenario.results
        in
        let reports = Nexthop.analyze_routers views in
        let pcts = List.map (fun r -> r.Nexthop.pct_nexthop_based) reports in
        let tb = Table.create [ ("router", Table.Right); ("% next-hop based", Table.Right) ] in
        List.iteri
          (fun i r ->
            Table.add_row tb
              [ Table.cell_int (i + 1); Table.cell_pct ~decimals:2 r.Nexthop.pct_nexthop_based ])
          reports;
        ( Printf.sprintf "(b) AS7018 across 30 backbone routers: min %.2f%%, max %.2f%%\n"
            (Option.value ~default:0.0 (Dist.min_value pcts))
            (Option.value ~default:0.0 (Dist.max_value pcts))
          ^ Table.render tb,
          [ tb ],
          [
            ("router_pct_min", Option.value ~default:0.0 (Dist.min_value pcts));
            ("router_pct_max", Option.value ~default:0.0 (Dist.max_value pcts));
          ] )
  in
  mk ~id:"fig2" ~title:"local-pref consistency with next hop"
    ~metrics:
      ([
         ("vantages", fi (List.length lg_pcts));
         ("pct_nexthop_min", Option.value ~default:0.0 (Dist.min_value lg_pcts));
         ("pct_nexthop_max", Option.value ~default:0.0 (Dist.max_value lg_pcts));
       ]
      @ router_metrics)
    ~tables:(t :: router_tables)
    (header "Fig. 2" "~98% of prefixes have local preference determined by the next-hop AS"
    ^ "(a) per Looking-Glass AS\n" ^ Table.render t ^ router_part)

(* --- Figs. 6 and 7 --- *)

(* One persistence sample of a provider's table: its prefixes, and those
   the Fig. 4 analysis finds selectively announced. *)
let persistence_sample graph ~provider ~origins rib =
  let report = Export_infer.analyze graph ~provider ~origins rib in
  {
    Persistence.all_prefixes = Prefix_set.of_list (Rib.prefixes rib);
    sa_prefixes =
      Prefix_set.of_list
        (List.map (fun (r : Export_infer.sa_record) -> r.Export_infer.prefix)
           report.Export_infer.sa);
  }

(* What both persistence experiments render: the all/SA count plot and
   an uptime table for the caller to fill. *)
let persistence_plot observations =
  let series = Persistence.series_of observations in
  Series.ascii_timeseries ~labels:[ "All prefixes"; "SA prefixes" ]
    [
      List.map float_of_int series.Persistence.all_counts;
      List.map float_of_int series.Persistence.sa_counts;
    ]

let uptime_table () =
  Table.create
    [ ("uptime", Table.Right); ("remaining SA", Table.Right);
      ("shifting SA->non-SA", Table.Right) ]

let fig6_fig7 ?(days = 31) ?(hours = 12) (ctx : Context.t) =
  (* Re-simulate on a reduced scenario so that per-epoch propagation stays
     cheap; the SA machinery is identical. *)
  let config =
    { Scenario.small_config with Scenario.seed = ctx.Context.scenario.Scenario.config.Scenario.seed }
  in
  let s = Scenario.build ~config () in
  let provider = Asn.of_int 1 in
  let policy = Scenario.policy_of s provider in
  (* Incremental observation: one watch of AS1's table per window, fed
     each epoch's announce/withdraw deltas (the first epoch's from an
     empty one); only the atoms the engine reports as changed are
     re-derived. *)
  let run_window ~epochs ~churn =
    let rng = Rpi_prng.Prng.create ~seed:(config.Scenario.seed + epochs) in
    let timeline =
      Rpi_sim.Timeline.evolve rng ~graph:s.Scenario.graph ~churn ~epochs s.Scenario.atoms
    in
    let w =
      Rpi_sim.Vantage.watch ~decision:s.Scenario.decision s.Scenario.network
        (Rpi_sim.Vantage.Looking_glass { policy; vantage = provider })
    in
    let _, rev_samples =
      List.fold_left
        (fun (prev, acc) (ep : Rpi_sim.Timeline.epoch) ->
          Rpi_sim.Vantage.advance w (Rpi_sim.Timeline.deltas_between prev ep);
          let sample =
            persistence_sample s.Scenario.graph ~provider
              ~origins:(Rpi_sim.Atom.origin_groups ep.Rpi_sim.Timeline.atoms)
              (Rpi_sim.Vantage.table w)
          in
          (ep, sample :: acc))
        ({ Rpi_sim.Timeline.index = -1; atoms = [] }, [])
        timeline
    in
    List.rev rev_samples
  in
  let daily = run_window ~epochs:days ~churn:Rpi_sim.Timeline.monthly_churn in
  let hourly = run_window ~epochs:hours ~churn:Rpi_sim.Timeline.hourly_churn in
  let render_window label observations =
    let up = Persistence.uptimes observations in
    let t = uptime_table () in
    let bins lst k = match List.assoc_opt k lst with Some v -> v | None -> 0 in
    for k = 1 to up.Persistence.max_uptime do
      Table.add_row t
        [
          Table.cell_int k;
          Table.cell_int (bins up.Persistence.remaining_sa k);
          Table.cell_int (bins up.Persistence.shifting k);
        ]
    done;
    ( Printf.sprintf "%s\n%s%s%% of SA prefixes shifted SA->non-SA: %.1f%%\n" label
        (persistence_plot observations) (Table.render t) up.Persistence.pct_shifting,
      t,
      up.Persistence.pct_shifting )
  in
  let daily_text, daily_table, daily_shift =
    render_window (Printf.sprintf "Fig 6(a)/7(a): %d daily epochs, AS1" days) daily
  in
  let hourly_text, hourly_table, hourly_shift =
    render_window (Printf.sprintf "Fig 6(b)/7(b): %d hourly epochs, AS1" hours) hourly
  in
  mk ~id:"fig6+7" ~title:"SA persistence over time"
    ~metrics:
      [
        ("daily_epochs", fi days);
        ("hourly_epochs", fi hours);
        ("daily_pct_shifting", daily_shift);
        ("hourly_pct_shifting", hourly_shift);
      ]
    ~tables:[ daily_table; hourly_table ]
    (header "Figs. 6-7"
       "SA counts stable over a month and a day; ~1/6 of SA prefixes shift within a month, almost none within a day"
    ^ daily_text ^ hourly_text)

(* --- Churn persistence (incremental engine) --- *)

let churn_persistence ?(epochs = 240) (ctx : Context.t) =
  (* Fig. 6/7-style SA persistence, but under topology-level churn — link
     flaps, relationship migrations, announce/withdraw cycles from the
     seeded churn generator — re-solved per epoch by the incremental
     engine ([Engine.repropagate]) instead of a fresh batch propagation.
     Only the dirty cone of each event re-runs, and AS1's table (a
     watch) re-derives only the atoms whose tables changed, which is
     what makes a long timeline affordable. *)
  let config =
    { Scenario.small_config with Scenario.seed = ctx.Context.scenario.Scenario.config.Scenario.seed }
  in
  let s = Scenario.build ~config () in
  let provider = Asn.of_int 1 in
  let policy = Scenario.policy_of s provider in
  let atoms = s.Scenario.atoms in
  let atom_of id = List.find (fun (a : Rpi_sim.Atom.t) -> a.Rpi_sim.Atom.id = id) atoms in
  let atom_ids = List.map (fun (a : Rpi_sim.Atom.t) -> a.Rpi_sim.Atom.id) atoms in
  let rng = Rpi_prng.Prng.create ~seed:(config.Scenario.seed + epochs) in
  let stream =
    Rpi_topo.Churn.generate rng ~graph:s.Scenario.graph ~atom_ids ~epochs
  in
  let w =
    Rpi_sim.Vantage.watch ~decision:s.Scenario.decision s.Scenario.network
      (Rpi_sim.Vantage.Looking_glass { policy; vantage = provider })
  in
  Rpi_sim.Vantage.advance w (List.map (fun a -> Rpi_sim.Engine.Delta.Announce a) atoms);
  let n_events = ref 0 in
  let observations =
    List.map
      (fun (ep : Rpi_topo.Churn.epoch) ->
        let deltas =
          List.map (Rpi_sim.Engine.Delta.of_event ~atom_of) ep.Rpi_topo.Churn.events
        in
        n_events := !n_events + List.length deltas;
        Rpi_sim.Vantage.advance w deltas;
        let st = Rpi_sim.Vantage.state w in
        persistence_sample (Rpi_sim.Engine.state_graph st) ~provider
          ~origins:(Rpi_sim.Atom.origin_groups (Rpi_sim.Engine.state_atoms st))
          (Rpi_sim.Vantage.table w))
      stream
  in
  let series = Persistence.series_of observations in
  let up = Persistence.uptimes observations in
  let t = uptime_table () in
  (* Long timelines make for tall histograms; aggregate the uptime axis
     into ~16 ranges (the bins are sparse — point-sampling them would
     show an empty table). *)
  let step = max 1 ((up.Persistence.max_uptime + 15) / 16) in
  let sum lst lo hi =
    List.fold_left (fun acc (k, v) -> if k >= lo && k <= hi then acc + v else acc) 0 lst
  in
  let lo = ref 1 in
  while !lo <= up.Persistence.max_uptime do
    let hi = min up.Persistence.max_uptime (!lo + step - 1) in
    Table.add_row t
      [
        (if !lo = hi then string_of_int !lo else Printf.sprintf "%d-%d" !lo hi);
        Table.cell_int (sum up.Persistence.remaining_sa !lo hi);
        Table.cell_int (sum up.Persistence.shifting !lo hi);
      ];
    lo := hi + 1
  done;
  mk ~id:"churn-persistence" ~title:"SA persistence under topology churn"
    ~metrics:
      [
        ("epochs", fi epochs);
        ("events", fi !n_events);
        ("pct_shifting", up.Persistence.pct_shifting);
        ("final_all",
         fi (match List.rev series.Persistence.all_counts with n :: _ -> n | [] -> 0));
        ("final_sa",
         fi (match List.rev series.Persistence.sa_counts with n :: _ -> n | [] -> 0));
      ]
    ~tables:[ t ]
    (header "Churn persistence"
       "(extension: Figs. 6-7 persistence machinery driven by link flaps, \
        relationship migrations and announce/withdraw cycles, re-solved \
        incrementally)"
    ^ Printf.sprintf "%d epochs, %d churn events, AS1 vantage\n" epochs !n_events
    ^ persistence_plot observations ^ Table.render t
    ^ Printf.sprintf "%% of SA prefixes shifted SA->non-SA: %.1f%%\n"
        up.Persistence.pct_shifting)

(* --- Fig. 9 --- *)

let fig9 (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let g = s.Scenario.graph in
  let pick_small =
    (* A low-degree Looking-Glass AS plays AS8736's role. *)
    List.fold_left
      (fun acc a ->
        match acc with
        | None -> Some a
        | Some best -> if As_graph.degree g a < As_graph.degree g best then Some a else acc)
      None s.Scenario.lg_ases
  in
  let vantages =
    List.filter_map
      (fun a -> if As_graph.mem_as g a then Some a else None)
      (List.map Asn.of_int [ 1; 3549 ])
    @ (match pick_small with Some a -> [ a ] | None -> [])
  in
  let plotted =
    List.length
      (List.filter (fun a -> Option.is_some (Scenario.lg_table s a)) vantages)
  in
  let body =
    String.concat ""
      (List.map
         (fun a ->
           match Scenario.lg_table s a with
           | None -> ""
           | Some rib ->
               let counts = Community_verify.prefix_counts rib in
               let points =
                 List.mapi (fun i (_, n) -> (float_of_int (i + 1), float_of_int n)) counts
               in
               let top =
                 List.filteri (fun i _ -> i < 5) counts
                 |> List.map (fun (nb, n) -> Printf.sprintf "%s:%d" (Asn.to_label nb) n)
                 |> String.concat "  "
               in
               Printf.sprintf "%s (degree %d): prefixes per next-hop AS, rank order\n%stop: %s\n"
                 (Asn.to_label a) (As_graph.degree g a)
                 (Series.ascii_loglog points)
                 top)
         vantages)
  in
  mk ~id:"fig9" ~title:"prefix-count rank plots"
    ~metrics:[ ("vantages_plotted", fi plotted) ]
    (header "Fig. 9"
       "rank vs announced-prefix plots: top announcers are peers/providers, the tail customers"
    ^ body)

(* --- Ablations --- *)

let ablation_curving (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let no_lp = { Rpi_bgp.Decision.default_config with Rpi_bgp.Decision.use_local_pref = false } in
  let t =
    Table.create
      [ ("Provider", Table.Left); ("prefixes", Table.Right);
        ("best changes without LP", Table.Right); ("% curving", Table.Right) ]
  in
  let pcts =
    List.filter_map
      (fun provider ->
        match Scenario.lg_table s provider with
        | None -> None
        | Some rib ->
            let total = ref 0 and changed = ref 0 in
            Rib.iter
              (fun prefix _ ->
                incr total;
                let with_lp = Rib.best rib prefix in
                let without = Rib.best ~config:no_lp rib prefix in
                match (with_lp, without) with
                | Some a, Some b ->
                    if not (Option.equal Asn.equal (Route.next_hop_as a) (Route.next_hop_as b))
                    then incr changed
                | _, _ -> ())
              rib;
            Table.add_row t
              [
                Asn.to_label provider;
                Table.cell_int !total;
                Table.cell_int !changed;
                Table.cell_pct (Dist.pct (!changed, !total));
              ];
            Some (Dist.pct (!changed, !total)))
      ctx.Context.focus_tier1
  in
  mk ~id:"ablation-curving" ~title:"decision without local pref"
    ~metrics:
      [
        ("providers", fi (List.length pcts));
        ("pct_curving_mean", if pcts = [] then 0.0 else Dist.mean pcts);
      ]
    ~tables:[ t ]
    (header "Ablation: decision without local preference"
       "(design ablation; the paper's premise is that LP overrides shortest-path)"
    ^ Table.render t)

let ablation_vantage_count (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let truth = s.Scenario.graph in
  (* Paths per collector peer. *)
  let paths_by_peer =
    Rib.fold
      (fun _ routes acc ->
        List.fold_left
          (fun acc (r : Route.t) ->
            match (r.Route.peer_as, Rpi_bgp.As_path.to_list r.Route.as_path) with
            | Some peer, (_ :: _ as hops) -> (peer, hops) :: acc
            | _, _ -> acc)
          acc routes)
      s.Scenario.collector []
  in
  let t =
    Table.create
      [ ("collector feeds", Table.Right); ("edges compared", Table.Right);
        ("accuracy", Table.Right) ]
  in
  let feed_counts = [ 1; 2; 5; 10; 20; List.length s.Scenario.collector_peers ] in
  let accuracies =
    List.map
      (fun k ->
        let keep = List.filteri (fun i _ -> i < k) s.Scenario.collector_peers in
        let paths =
          List.filter_map
            (fun (peer, hops) ->
              if List.exists (Asn.equal peer) keep then Some hops else None)
            paths_by_peer
        in
        let inferred = Rpi_relinfer.Gao.infer paths in
        let report = Rpi_relinfer.Validate.compare_graphs ~truth ~inferred in
        Table.add_row t
          [
            Table.cell_int k;
            Table.cell_int report.Rpi_relinfer.Validate.edges_compared;
            Table.cell_pct (100.0 *. Rpi_relinfer.Validate.accuracy report);
          ];
        (k, 100.0 *. Rpi_relinfer.Validate.accuracy report))
      feed_counts
  in
  let accuracy_at_full =
    match List.rev accuracies with (_, a) :: _ -> a | [] -> 0.0
  in
  mk ~id:"ablation-vantages" ~title:"inference accuracy vs feeds"
    ~metrics:
      [
        ("feed_counts", fi (List.length feed_counts));
        ("accuracy_single_feed", (match accuracies with (_, a) :: _ -> a | [] -> 0.0));
        ("accuracy_all_feeds", accuracy_at_full);
      ]
    ~tables:[ t ]
    (header "Ablation: relationship-inference accuracy vs vantage count"
       "(design ablation; the paper relies on 56 feeds being enough)"
    ^ Table.render t)

let ablation_graph_oracle (ctx : Context.t) =
  let oracle_ctx = Context.use_ground_truth_graph ctx in
  let t =
    Table.create
      [ ("Provider", Table.Left); ("% SA (inferred graph)", Table.Right);
        ("% SA (oracle graph)", Table.Right) ]
  in
  let pairs =
    List.map
      (fun provider ->
        let inferred_r = sa_report ctx provider in
        let oracle_r =
          Export_infer.analyze oracle_ctx.Context.corrected ~provider
            ~origins:oracle_ctx.Context.collector_origins
            oracle_ctx.Context.scenario.Scenario.collector
        in
        Table.add_row t
          [
            Asn.to_label provider;
            Table.cell_pct inferred_r.Export_infer.pct_sa;
            Table.cell_pct oracle_r.Export_infer.pct_sa;
          ];
        (inferred_r.Export_infer.pct_sa, oracle_r.Export_infer.pct_sa))
      ctx.Context.focus_tier1
  in
  let inferred_pcts = List.map fst pairs and oracle_pcts = List.map snd pairs in
  mk ~id:"ablation-oracle" ~title:"inferred vs oracle graph"
    ~metrics:
      [
        ("pct_sa_inferred_mean", if pairs = [] then 0.0 else Dist.mean inferred_pcts);
        ("pct_sa_oracle_mean", if pairs = [] then 0.0 else Dist.mean oracle_pcts);
      ]
    ~tables:[ t ]
    (header "Ablation: inferred vs ground-truth AS relationships"
       "(the paper argues inference error is negligible — Table 4)"
    ^ Table.render t)

(* --- Extensions --- *)

let ext_prepend (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let r = Rpi_core.Prepend_infer.analyze s.Scenario.collector in
  let t =
    Table.create
      [ ("copies", Table.Right); ("routes", Table.Right) ]
  in
  List.iter
    (fun (copies, n) -> Table.add_row t [ Table.cell_int copies; Table.cell_int n ])
    r.Rpi_core.Prepend_infer.copies_histogram;
  let truth =
    List.length
      (List.filter
         (fun (a : Rpi_sim.Atom.t) -> a.Rpi_sim.Atom.prepend_to <> [])
         s.Scenario.atoms)
  in
  let detected_origin_preps =
    List.filter (fun rcd -> rcd.Rpi_core.Prepend_infer.at_origin)
      r.Rpi_core.Prepend_infer.records
  in
  let detected_preppers =
    List.map (fun rcd -> rcd.Rpi_core.Prepend_infer.prepender) detected_origin_preps
    |> List.sort_uniq Asn.compare
  in
  let true_preppers =
    List.filter_map
      (fun (a : Rpi_sim.Atom.t) ->
        if a.Rpi_sim.Atom.prepend_to <> [] then Some a.Rpi_sim.Atom.origin else None)
      s.Scenario.atoms
    |> List.sort_uniq Asn.compare
  in
  let correct =
    List.length
      (List.filter (fun a -> List.exists (Asn.equal a) true_preppers) detected_preppers)
  in
  mk ~id:"ext-prepend" ~title:"AS-path prepending detection"
    ~metrics:
      [
        ("pct_prepended", r.Rpi_core.Prepend_infer.pct_prepended);
        ("preppers_detected", fi (List.length detected_preppers));
        ("precision_pct", Dist.pct (correct, List.length detected_preppers));
      ]
    ~tables:[ t ]
    (header "Extension: AS-path prepending"
       "(Section 2.2.2 lists prepending as the soft inbound-TE alternative; not quantified in the paper)"
    ^ Printf.sprintf "%d/%d routes at the collector carry a prepended path (%.1f%%).\n"
        r.Rpi_core.Prepend_infer.routes_prepended r.Rpi_core.Prepend_infer.routes_total
        r.Rpi_core.Prepend_infer.pct_prepended
    ^ Table.render t
    ^ Printf.sprintf
        "Oracle: %d ASs configured prepending; %d distinct origin-prependers detected, %d of them real (precision %.0f%%).\n"
        truth
        (List.length detected_preppers)
        correct
        (Dist.pct (correct, List.length detected_preppers)))

let ext_atoms (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let r = Rpi_core.Policy_atoms.infer s.Scenario.collector in
  let truth_of prefix =
    Option.map
      (fun (a : Rpi_sim.Atom.t) -> a.Rpi_sim.Atom.id)
      (Ground_truth.atom_of_prefix s prefix)
  in
  let purity = Rpi_core.Policy_atoms.purity r ~ground_truth:truth_of in
  mk ~id:"ext-atoms" ~title:"policy atoms and their causes"
    ~metrics:
      [
        ("atoms", fi r.Rpi_core.Policy_atoms.atom_count);
        ("mean_size", r.Rpi_core.Policy_atoms.mean_size);
        ("purity_pct", 100.0 *. purity);
      ]
    (header "Extension: policy atoms"
       "Afek et al. (IMW 2002): most policy atoms are created by origin routing policies (Sec 5.1.5)"
    ^ Printf.sprintf
        "%d prefixes form %d policy atoms (mean size %.2f, max %d, %d singletons).\n"
        r.Rpi_core.Policy_atoms.prefixes_total r.Rpi_core.Policy_atoms.atom_count
        r.Rpi_core.Policy_atoms.mean_size r.Rpi_core.Policy_atoms.max_size
        r.Rpi_core.Policy_atoms.singleton_count
    ^ Printf.sprintf
        "Purity against ground-truth announcement atoms: %.1f%% of inferred atoms map into a single configured atom.\n"
        (100.0 *. purity))

let ext_availability (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let t =
    Table.create
      [ ("Observer", Table.Left); ("mean potential next hops", Table.Right);
        ("mean actual next hops", Table.Right); ("availability", Table.Right);
        ("starved prefixes", Table.Right) ]
  in
  let stats =
    List.filter_map
      (fun observer ->
        match Scenario.lg_table s observer with
        | None -> None
        | Some rib ->
            let r =
              Rpi_core.Availability.analyze ctx.Context.corrected ~observer
                ~origins:ctx.Context.collector_origins rib
            in
            Table.add_row t
              [
                Asn.to_label observer;
                Table.cell_float r.Rpi_core.Availability.mean_potential;
                Table.cell_float r.Rpi_core.Availability.mean_actual;
                Table.cell_pct (100.0 *. r.Rpi_core.Availability.availability_ratio);
                Table.cell_int r.Rpi_core.Availability.starved;
              ];
            Some
              ( 100.0 *. r.Rpi_core.Availability.availability_ratio,
                r.Rpi_core.Availability.starved ))
      ctx.Context.focus_tier1
  in
  let ratios = List.map fst stats in
  let starved_total = List.fold_left (fun acc (_, s) -> acc + s) 0 stats in
  mk ~id:"ext-availability" ~title:"connectivity vs reachability"
    ~metrics:
      [
        ("observers", fi (List.length stats));
        ("availability_pct_mean", if ratios = [] then 0.0 else Dist.mean ratios);
        ("starved_total", fi starved_total);
      ]
    ~tables:[ t ]
    (header "Extension: path availability"
       "\"much less available paths in the Internet than shown in the AS connectivity graph\" (Sec 1, 5.1.2)"
    ^ Table.render t
    ^ "A starved prefix has >= 2 graph-level next hops but at most one actual route.\n")

let ext_irr_export (ctx : Context.t) =
  let r = Rpi_core.Irr_export.analyze ctx.Context.corrected ctx.Context.irr in
  let t =
    Table.create
      [ ("AS", Table.Left); ("towards", Table.Left); ("relationship", Table.Left);
        ("filter", Table.Left) ]
  in
  List.iteri
    (fun i (v : Rpi_core.Irr_export.violation) ->
      if i < 10 then
        Table.add_row t
          [
            Asn.to_label v.Rpi_core.Irr_export.asn;
            Asn.to_label v.Rpi_core.Irr_export.to_as;
            Relationship.to_string v.Rpi_core.Irr_export.rel;
            v.Rpi_core.Irr_export.announce;
          ])
    r.Rpi_core.Irr_export.violations;
  mk ~id:"ext-irr-export" ~title:"IRR export-rule audit"
    ~metrics:
      [
        ("objects", fi r.Rpi_core.Irr_export.objects_checked);
        ("leak_rules", fi (List.length r.Rpi_core.Irr_export.violations));
        ("pct_clean_objects", r.Rpi_core.Irr_export.pct_clean_objects);
      ]
    ~tables:[ t ]
    (header "Extension: IRR export audit"
       "(the paper mines imports only; exports can be audited against Sec 2.2.2's rules)"
    ^ Printf.sprintf
        "%d objects, %d classified export rules, %d leak-shaped rules; %.1f%% of objects clean.\n"
        r.Rpi_core.Irr_export.objects_checked r.Rpi_core.Irr_export.rules_checked
        (List.length r.Rpi_core.Irr_export.violations)
        r.Rpi_core.Irr_export.pct_clean_objects
    ^ Table.render t)

let ext_tiers (ctx : Context.t) =
  let s = ctx.Context.scenario in
  let classified = Tier.classify s.Scenario.graph in
  let truth = Rpi_topo.Gen.tiers_ground_truth s.Scenario.topo in
  let agree, total =
    Asn.Map.fold
      (fun a truth_tier (agree, total) ->
        match Asn.Map.find_opt a classified with
        | Some t -> ((if t = truth_tier then agree + 1 else agree), total + 1)
        | None -> (agree, total))
      truth (0, 0)
  in
  let t = Table.create [ ("tier", Table.Right); ("classified", Table.Right) ] in
  List.iter
    (fun (tier, count) -> Table.add_row t [ Table.cell_int tier; Table.cell_int count ])
    (Tier.histogram classified);
  mk ~id:"ext-tiers" ~title:"tier classification accuracy"
    ~metrics:
      [ ("agreement_pct", Dist.pct (agree, total)); ("ases_compared", fi total) ]
    ~tables:[ t ]
    (header "Extension: tier classification"
       "(the paper classifies ASs to tiers per Subramanian et al. [8])"
    ^ Table.render t
    ^ Printf.sprintf "Agreement with the generator's ground truth: %d/%d (%.1f%%).\n" agree
        total
        (Dist.pct (agree, total))
    ^ "Disagreements come from bypass links: an AS attaching above its generation class\n\
       (a Tier-3 buying from a Tier-1, a stub buying from a Tier-2) classifies one tier up —\n\
       the classifier follows the provider hierarchy, not the generator's labels.\n")

(* --- NS-BGP: pluggable decision processes --- *)

(* Two demonstrations of the Decision API.  First the stability claim:
   on the BAD GADGET dispute wheel vanilla BGP oscillates against the
   step cap while NS-BGP's per-neighbour selection converges.  Then the
   policy-characterization angle: rebuilding the same synthetic world
   under either decision process and comparing the SA-prefix share each
   Tier-1 provider exhibits (the Table 5 statistic) shows how much of the
   paper's headline signal is an artifact of one-best-route export. *)
let ns_bgp (ctx : Context.t) =
  let module Engine = Rpi_sim.Engine in
  let module Decision = Rpi_sim.Decision in
  let module Gadget = Rpi_sim.Gadget in
  let graph, import = Gadget.bad_gadget () in
  let network = Engine.prepare ~graph ~import () in
  let retain = Asn.Set.of_list (As_graph.ases graph) in
  let origin = Asn.of_int 64500 in
  let atom =
    Rpi_sim.Atom.vanilla ~id:0 ~origin
      [ Prefix.of_string_exn "192.0.2.0/24" ]
  in
  let vanilla = Engine.propagate network ~retain atom in
  let ns = Engine.propagate network ~retain ~decision:Decision.neighbor_specific atom in
  let gadget_t =
    Table.create
      [ ("decision process", Table.Left); ("converged", Table.Left);
        ("steps", Table.Right) ]
  in
  List.iter
    (fun (name, (r : Engine.result)) ->
      Table.add_row gadget_t
        [
          name;
          (if r.Engine.converged then "yes" else "no");
          Table.cell_int r.Engine.steps;
        ])
    [ ("vanilla", vanilla); ("neighbor-specific", ns) ];
  (* The same world twice, once per decision process. *)
  let seed = ctx.Context.scenario.Scenario.config.Scenario.seed in
  let config = { Scenario.small_config with Scenario.seed } in
  let base = Scenario.build ~config () in
  let nsb = Scenario.build ~config ~decision:Decision.neighbor_specific () in
  let share (s : Scenario.t) provider =
    let origins = Export_infer.origins_of_rib s.Scenario.collector in
    let viewpoint =
      Export_infer.viewpoint_of_feed ~feed:provider s.Scenario.collector
    in
    (Export_infer.analyze s.Scenario.graph ~provider ~origins viewpoint)
      .Export_infer.pct_sa
  in
  let providers = base.Scenario.topo.Rpi_topo.Gen.tier1 in
  let sa_t =
    Table.create
      [ ("AS", Table.Left); ("% SA (vanilla)", Table.Right);
        ("% SA (NS-BGP)", Table.Right) ]
  in
  let pairs =
    List.map
      (fun p ->
        let v = share base p and n = share nsb p in
        Table.add_row sa_t [ Asn.to_label p; Table.cell_pct v; Table.cell_pct n ];
        (v, n))
      providers
  in
  let v_mean = Dist.mean (List.map fst pairs) in
  let n_mean = Dist.mean (List.map snd pairs) in
  mk ~id:"ns-bgp" ~title:"NS-BGP decision process vs vanilla"
    ~metrics:
      [
        ("gadget_vanilla_converged", if vanilla.Engine.converged then 1.0 else 0.0);
        ("gadget_ns_converged", if ns.Engine.converged then 1.0 else 0.0);
        ("gadget_ns_steps", fi ns.Engine.steps);
        ("sa_pct_vanilla_mean", v_mean);
        ("sa_pct_ns_mean", n_mean);
      ]
    ~tables:[ gadget_t; sa_t ]
    (header "NS-BGP"
       "(extension: Wang et al. propose per-neighbour route selection; the \
        dispute wheel that oscillates under vanilla BGP converges under it)"
    ^ Table.render gadget_t
    ^ "Tier-1 SA-prefix share when the same world runs under either decision process:\n"
    ^ Table.render sa_t
    ^ Printf.sprintf "Mean Tier-1 SA share: %.2f%% vanilla vs %.2f%% NS-BGP.\n"
        v_mean n_mean)

let stability ?(seeds = [ 7; 19; 1031 ]) (ctx : Context.t) =
  ignore ctx;
  let t =
    Table.create
      [ ("seed", Table.Right); ("typical pref median", Table.Right);
        ("Tier-1 SA share", Table.Right); ("inference accuracy", Table.Right) ]
  in
  let rows =
    List.map
      (fun seed ->
        let config = { Scenario.small_config with Scenario.seed } in
        let c = Context.create ~config () in
        let s = c.Context.scenario in
        let typical_median =
          Dist.median
            (List.map
               (fun (a, rib) ->
                 (Import_infer.analyze c.Context.corrected ~vantage:a rib)
                   .Import_infer.pct_typical)
               s.Scenario.lg_tables)
        in
        let sa_shares =
          List.map
            (fun provider ->
              let viewpoint =
                Export_infer.viewpoint_of_feed ~feed:provider s.Scenario.collector
              in
              (Export_infer.analyze c.Context.corrected ~provider
                 ~origins:c.Context.collector_origins viewpoint)
                .Export_infer.pct_sa)
            s.Scenario.topo.Rpi_topo.Gen.tier1
        in
        let accuracy =
          Rpi_relinfer.Validate.accuracy
            (Rpi_relinfer.Validate.compare_graphs ~truth:s.Scenario.graph
               ~inferred:c.Context.corrected)
        in
        Table.add_row t
          [
            Table.cell_int seed;
            Table.cell_pct ~decimals:2 typical_median;
            Table.cell_pct (Dist.mean sa_shares);
            Table.cell_pct (100.0 *. accuracy);
          ];
        (typical_median, 100.0 *. accuracy))
      seeds
  in
  let medians = List.map fst rows and accs = List.map snd rows in
  mk ~id:"stability" ~title:"headline metrics across seeds"
    ~metrics:
      [
        ("seeds", fi (List.length seeds));
        ("typical_median_min", Option.value ~default:0.0 (Dist.min_value medians));
        ("accuracy_min", Option.value ~default:0.0 (Dist.min_value accs));
      ]
    ~tables:[ t ]
    (header "Stability across seeds"
       "(robustness check: the qualitative bands must hold in freshly generated worlds)"
    ^ Table.render t
    ^ "Expected bands: typical preference > 90%, Tier-1 SA share in 5..45%, accuracy > 93%.\n")

(* Cost hints: measured elapsed_s on the default scenario (see
   BENCH_results.json); only their relative order matters. *)
let all =
  [
    { id = "table1"; title = "data sources"; cost = 0.004; run = table1 };
    { id = "table2"; title = "typical local preference (BGP tables)"; cost = 0.102; run = table2 };
    { id = "table3"; title = "typical local preference (IRR)"; cost = 0.002; run = table3 };
    { id = "table4"; title = "relationship verification via communities"; cost = 0.117; run = table4 };
    { id = "table5"; title = "SA-prefix share per provider"; cost = 0.517; run = table5 };
    { id = "table6"; title = "per-customer SA share"; cost = 0.014; run = table6 };
    { id = "table7"; title = "SA-prefix verification"; cost = 0.202; run = table7 };
    { id = "table8"; title = "multihoming of SA origins"; cost = 0.001; run = table8 };
    { id = "table9"; title = "splitting/aggregation vs SA"; cost = 0.028; run = table9 };
    { id = "table10"; title = "peer export completeness"; cost = 0.377; run = table10 };
    { id = "case3"; title = "announce/withhold split to direct providers"; cost = 0.267; run = case3 };
    { id = "fig2"; title = "local-pref consistency with next hop"; cost = 0.728; run = fig2 };
    { id = "fig6+7"; title = "SA persistence over time"; cost = 0.68; run = (fun ctx -> fig6_fig7 ctx) };
    { id = "churn-persistence"; title = "SA persistence under topology churn"; cost = 2.5; run = (fun ctx -> churn_persistence ctx) };
    { id = "fig9"; title = "prefix-count rank plots"; cost = 0.009; run = fig9 };
    { id = "ablation-curving"; title = "decision without local pref"; cost = 0.025; run = ablation_curving };
    { id = "ablation-vantages"; title = "inference accuracy vs feeds"; cost = 0.756; run = ablation_vantage_count };
    { id = "ablation-oracle"; title = "inferred vs oracle graph"; cost = 0.073; run = ablation_graph_oracle };
    { id = "ext-prepend"; title = "AS-path prepending detection"; cost = 0.034; run = ext_prepend };
    { id = "ext-atoms"; title = "policy atoms and their causes"; cost = 0.316; run = ext_atoms };
    { id = "ext-availability"; title = "connectivity vs reachability"; cost = 0.070; run = ext_availability };
    { id = "ext-irr-export"; title = "IRR export-rule audit"; cost = 0.001; run = ext_irr_export };
    { id = "ext-tiers"; title = "tier classification accuracy"; cost = 0.002; run = ext_tiers };
    { id = "ns-bgp"; title = "NS-BGP decision process vs vanilla"; cost = 1.2; run = ns_bgp };
    { id = "stability"; title = "headline metrics across seeds"; cost = 2.481; run = (fun ctx -> stability ctx) };
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

let run_all ctx =
  String.concat "\n" (List.map (fun e -> (e.run ctx).rendered) all)
