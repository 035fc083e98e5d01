(* Integration tests: every experiment runs end-to-end on a reduced
   scenario and its headline metrics land in the qualitative bands the
   paper reports.  These are the "shape" assertions of the reproduction. *)

module Asn = Rpi_bgp.Asn
module Scenario = Rpi_dataset.Scenario
module Context = Rpi_experiments.Context
module Exp = Rpi_experiments.Exp
module Import_infer = Rpi_core.Import_infer
module Export_infer = Rpi_core.Export_infer
module Nexthop = Rpi_core.Nexthop_consistency

let ctx =
  lazy
    (Context.create
       ~config:{ Scenario.small_config with Scenario.seed = 3 }
       ())

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_all_experiments_render () =
  let c = Lazy.force ctx in
  List.iter
    (fun (e : Exp.t) ->
      (* The persistence experiments re-simulate; shrink them. *)
      let outcome =
        if e.Exp.id = "fig6+7" then Exp.fig6_fig7 ~days:4 ~hours:3 c
        else if e.Exp.id = "churn-persistence" then Exp.churn_persistence ~epochs:20 c
        else e.Exp.run c
      in
      let out = outcome.Exp.rendered in
      Alcotest.(check string) (e.Exp.id ^ " outcome id") e.Exp.id outcome.Exp.id;
      Alcotest.(check bool) (e.Exp.id ^ " has header") true (contains out "Paper reports");
      Alcotest.(check bool) (e.Exp.id ^ " non-trivial") true (String.length out > 100))
    Exp.all

let test_typical_preference_shape () =
  let c = Lazy.force ctx in
  let s = c.Context.scenario in
  let pcts =
    List.map
      (fun (a, rib) ->
        (Import_infer.analyze c.Context.corrected ~vantage:a rib).Import_infer.pct_typical)
      s.Scenario.lg_tables
  in
  let median = Rpi_stats.Dist.median pcts in
  Alcotest.(check bool)
    (Printf.sprintf "median typical %.1f%% above 90" median)
    true (median > 90.0)

let test_nexthop_shape () =
  let c = Lazy.force ctx in
  let s = c.Context.scenario in
  List.iter
    (fun (a, rib) ->
      let r = Nexthop.analyze rib in
      Alcotest.(check bool)
        (Printf.sprintf "%s next-hop-based %.1f%% above 90" (Asn.to_label a)
           r.Nexthop.pct_nexthop_based)
        true
        (r.Nexthop.pct_nexthop_based > 90.0))
    s.Scenario.lg_tables

let test_sa_shape () =
  (* SA prefixes are prevalent at Tier-1s: a non-trivial share of customer
     prefixes, far above the splitting/aggregation counts. *)
  let c = Lazy.force ctx in
  let s = c.Context.scenario in
  let provider = List.hd s.Scenario.topo.Rpi_topo.Gen.tier1 in
  let viewpoint = Export_infer.viewpoint_of_feed ~feed:provider s.Scenario.collector in
  let report =
    Export_infer.analyze c.Context.corrected ~provider ~origins:c.Context.collector_origins
      viewpoint
  in
  let sa = List.length report.Export_infer.sa in
  Alcotest.(check bool)
    (Printf.sprintf "SA share %.1f%% in (1, 60)" report.Export_infer.pct_sa)
    true
    (report.Export_infer.pct_sa > 1.0 && report.Export_infer.pct_sa < 60.0);
  let split = Rpi_core.Sa_causes.splitting viewpoint report.Export_infer.sa in
  Alcotest.(check bool) "splitting is a small minority" true
    (List.length split * 4 < max 1 sa)

let test_relationship_inference_quality () =
  let c = Lazy.force ctx in
  let report =
    Rpi_relinfer.Validate.compare_graphs ~truth:c.Context.scenario.Scenario.graph
      ~inferred:c.Context.corrected
  in
  let acc = Rpi_relinfer.Validate.accuracy report in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f above 0.93" acc) true (acc > 0.93)

let test_context_delta_invalidation () =
  (* Context memoizes Export_infer.analyze per provider (the sa_cache
     behind Context.sa_view): the cached report matches a fresh batch
     recompute over the provider's own feed.  (Per-update invalidation of
     the ingest state is covered in test_ingest.) *)
  let c = Lazy.force ctx in
  let s = c.Context.scenario in
  let provider = List.hd s.Scenario.topo.Rpi_topo.Gen.tier1 in
  let _, report = Context.sa_view c provider in
  let batch =
    Export_infer.analyze c.Context.corrected ~provider
      ~origins:c.Context.collector_origins
      (Export_infer.viewpoint_of_feed ~feed:provider s.Scenario.collector)
  in
  Alcotest.(check (float 1e-9)) "cached report = batch" batch.Export_infer.pct_sa
    report.Export_infer.pct_sa;
  Alcotest.(check int) "cached sa count = batch"
    (List.length batch.Export_infer.sa)
    (List.length report.Export_infer.sa)

let test_run_all_smoke () =
  (* run_all stitches every section together without raising. *)
  let c = Lazy.force ctx in
  let out = Exp.run_all c in
  Alcotest.(check bool) "mentions every table" true
    (List.for_all
       (fun t -> contains out t)
       [ "Table 1"; "Table 5"; "Table 10"; "Fig. 2"; "Fig. 9" ])

let () =
  Alcotest.run "rpi_experiments"
    [
      ( "integration",
        [
          Alcotest.test_case "all experiments render" `Slow test_all_experiments_render;
          Alcotest.test_case "typical preference shape" `Quick test_typical_preference_shape;
          Alcotest.test_case "next-hop consistency shape" `Quick test_nexthop_shape;
          Alcotest.test_case "SA shape" `Quick test_sa_shape;
          Alcotest.test_case "inference quality" `Quick test_relationship_inference_quality;
          Alcotest.test_case "context delta invalidation" `Quick
            test_context_delta_invalidation;
          Alcotest.test_case "run_all smoke" `Slow test_run_all_smoke;
        ] );
    ]
