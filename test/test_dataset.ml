(* Scenario-level tests: determinism, internal consistency, and the oracle
   cross-checks that tie the inference pipeline to the simulator's ground
   truth. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Prefix = Rpi_net.Prefix
module Scenario = Rpi_dataset.Scenario
module Ground_truth = Rpi_dataset.Ground_truth
module Atom = Rpi_sim.Atom
module Export_infer = Rpi_core.Export_infer

let tiny_config =
  {
    Scenario.small_config with
    Scenario.seed = 5;
    topology =
      {
        Rpi_topo.Gen.default_config with
        Rpi_topo.Gen.n_tier1 = 4;
        n_tier2 = 12;
        n_tier3 = 40;
        n_stub = 100;
      };
    n_collector_peers = 8;
    n_lg = 5;
  }

let scenario = lazy (Scenario.build ~config:tiny_config ())

let test_build_basics () =
  let s = Lazy.force scenario in
  Alcotest.(check int) "AS count" 156 (Rpi_topo.As_graph.as_count s.Scenario.graph);
  Alcotest.(check bool) "atoms exist" true (List.length s.Scenario.atoms > 100);
  Alcotest.(check bool) "collector non-empty" true (Rib.prefix_count s.Scenario.collector > 100);
  Alcotest.(check int) "LG tables" (List.length s.Scenario.lg_ases)
    (List.length s.Scenario.lg_tables);
  Alcotest.(check bool) "results cover atoms" true
    (List.length s.Scenario.results = List.length s.Scenario.atoms)

let test_determinism () =
  let a = Scenario.build ~config:tiny_config () in
  let b = Scenario.build ~config:tiny_config () in
  Alcotest.(check int) "same atom count" (List.length a.Scenario.atoms)
    (List.length b.Scenario.atoms);
  Alcotest.(check int) "same collector prefixes" (Rib.prefix_count a.Scenario.collector)
    (Rib.prefix_count b.Scenario.collector);
  Alcotest.(check int) "same collector routes" (Rib.route_count a.Scenario.collector)
    (Rib.route_count b.Scenario.collector);
  Alcotest.(check bool) "same edges" true
    (Rpi_topo.As_graph.to_edges a.Scenario.graph = Rpi_topo.As_graph.to_edges b.Scenario.graph)

let test_different_seeds_differ () =
  let a = Lazy.force scenario in
  let b = Scenario.build ~config:{ tiny_config with Scenario.seed = 6 } () in
  Alcotest.(check bool) "different routing state" true
    (Rib.route_count a.Scenario.collector <> Rib.route_count b.Scenario.collector
    || a.Scenario.atoms <> b.Scenario.atoms)

let test_atom_ids_unique () =
  let s = Lazy.force scenario in
  let ids = List.map (fun (a : Atom.t) -> a.Atom.id) s.Scenario.atoms in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq Int.compare ids))

let test_prefixes_unique_across_atoms () =
  let s = Lazy.force scenario in
  let all = List.concat_map (fun (a : Atom.t) -> a.Atom.prefixes) s.Scenario.atoms in
  Alcotest.(check int) "no duplicate prefixes" (List.length all)
    (List.length (List.sort_uniq Prefix.compare all))

let test_origins_ground_truth () =
  let s = Lazy.force scenario in
  let origins = Atom.origin_groups s.Scenario.atoms in
  let total = List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 origins in
  let atom_total =
    List.fold_left (fun acc (a : Atom.t) -> acc + List.length a.Atom.prefixes) 0 s.Scenario.atoms
  in
  Alcotest.(check int) "covers every atom prefix" atom_total total;
  let ids = List.map fst origins in
  Alcotest.(check bool) "one group per origin, sorted" true
    (List.equal Asn.equal ids (List.sort_uniq Asn.compare ids));
  List.iter
    (fun (a : Atom.t) ->
      Alcotest.(check bool) "prefixes grouped under their origin" true
        (List.for_all
           (fun p -> List.exists (Prefix.equal p) (List.assoc a.Atom.origin origins))
           a.Atom.prefixes))
    s.Scenario.atoms

let test_convergence () =
  let s = Lazy.force scenario in
  Alcotest.(check bool) "all atoms converged" true
    (List.for_all (fun (r : Rpi_sim.Engine.result) -> r.Rpi_sim.Engine.converged)
       s.Scenario.results)

let test_collector_paths_valley_free () =
  (* Every path at the collector must be valley-free under the ground
     truth graph (the engine must never leak a route against export
     rules).  Atypical import preferences can pick provider routes over
     customer routes, but the export discipline still holds. *)
  let s = Lazy.force scenario in
  let bad = ref 0 and total = ref 0 in
  Rib.iter
    (fun _ routes ->
      List.iter
        (fun (r : Rpi_bgp.Route.t) ->
          let hops = Rpi_bgp.As_path.to_list r.Rpi_bgp.Route.as_path in
          incr total;
          if not (Rpi_topo.Paths.is_valley_free s.Scenario.graph hops) then incr bad)
        routes)
    s.Scenario.collector;
  Alcotest.(check int) (Printf.sprintf "no valley paths out of %d" !total) 0 !bad

let test_ground_truth_causes () =
  let s = Lazy.force scenario in
  let causes =
    List.map (fun (a : Atom.t) -> Ground_truth.cause_of_atom a) s.Scenario.atoms
  in
  let count c = List.length (List.filter (fun x -> x = c) causes) in
  Alcotest.(check bool) "plain atoms exist" true (count Ground_truth.Plain > 0);
  Alcotest.(check bool) "selective atoms exist" true
    (count Ground_truth.Selective_subset > 0);
  Alcotest.(check int) "selective total consistent"
    (Ground_truth.selective_atom_count s)
    (count Ground_truth.Selective_subset + count Ground_truth.Selective_no_export)

let test_oracle_agreement () =
  (* The central integrity check: SA prefixes inferred from a provider's
     serialized feed agree with the engine's ground-truth routing state. *)
  let s = Lazy.force scenario in
  let provider = List.hd s.Scenario.topo.Rpi_topo.Gen.tier1 in
  let viewpoint = Export_infer.viewpoint_of_feed ~feed:provider s.Scenario.collector in
  let origins = Atom.origin_groups s.Scenario.atoms in
  let report = Export_infer.analyze s.Scenario.graph ~provider ~origins viewpoint in
  List.iter
    (fun (r : Export_infer.sa_record) ->
      match Ground_truth.expected_sa s ~provider r.Export_infer.prefix with
      | Some expected ->
          Alcotest.(check bool)
            (Printf.sprintf "SA %s agrees with engine" (Prefix.to_string r.Export_infer.prefix))
            true expected
      | None -> ())
    report.Export_infer.sa

let test_lg_tables_have_local_pref () =
  let s = Lazy.force scenario in
  match s.Scenario.lg_tables with
  | [] -> Alcotest.fail "no LG tables"
  | (_, rib) :: _ ->
      let has_lp =
        Rib.fold
          (fun _ routes acc ->
            acc
            || List.exists
                 (fun (r : Rpi_bgp.Route.t) -> r.Rpi_bgp.Route.local_pref <> None)
                 routes)
          rib false
      in
      Alcotest.(check bool) "local pref visible" true has_lp

let test_collector_has_no_local_pref () =
  let s = Lazy.force scenario in
  let any_lp =
    Rib.fold
      (fun _ routes acc ->
        acc
        || List.exists (fun (r : Rpi_bgp.Route.t) -> r.Rpi_bgp.Route.local_pref <> None) routes)
      s.Scenario.collector false
  in
  Alcotest.(check bool) "collector strips local pref" false any_lp

let test_scheme_truth () =
  let s = Lazy.force scenario in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has a scheme" (Asn.to_label a))
        true
        (Ground_truth.scheme_truth s a <> None))
    s.Scenario.lg_ases

let () =
  Alcotest.run "rpi_dataset"
    [
      ( "scenario",
        [
          Alcotest.test_case "build basics" `Quick test_build_basics;
          Alcotest.test_case "determinism" `Slow test_determinism;
          Alcotest.test_case "seeds differ" `Slow test_different_seeds_differ;
          Alcotest.test_case "atom ids unique" `Quick test_atom_ids_unique;
          Alcotest.test_case "prefixes unique" `Quick test_prefixes_unique_across_atoms;
          Alcotest.test_case "origins ground truth" `Quick test_origins_ground_truth;
          Alcotest.test_case "convergence" `Quick test_convergence;
          Alcotest.test_case "valley-free paths" `Quick test_collector_paths_valley_free;
        ] );
      ( "ground_truth",
        [
          Alcotest.test_case "causes" `Quick test_ground_truth_causes;
          Alcotest.test_case "oracle agreement" `Quick test_oracle_agreement;
          Alcotest.test_case "schemes" `Quick test_scheme_truth;
        ] );
      ( "observability",
        [
          Alcotest.test_case "LG shows local pref" `Quick test_lg_tables_have_local_pref;
          Alcotest.test_case "collector strips local pref" `Quick test_collector_has_no_local_pref;
        ] );
    ]
