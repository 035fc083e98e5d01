module Asn = Rpi_bgp.Asn
module Relationship = Rpi_topo.Relationship
module As_graph = Rpi_topo.As_graph
module Paths = Rpi_topo.Paths
module Tier = Rpi_topo.Tier
module Gen = Rpi_topo.Gen
module Prng = Rpi_prng.Prng

let asn = Asn.of_int

(* A small reference topology, the paper's Fig. 1 extended:
   t1a, t1b: Tier-1 clique; m1, m2 mid-tier customers of the Tier-1s;
   s1 stub below m1, s2 multihomed stub below m1 and m2. *)
let sample () =
  let t1a = asn 10 and t1b = asn 20 and m1 = asn 30 and m2 = asn 40 in
  let s1 = asn 50 and s2 = asn 60 in
  let g = As_graph.empty in
  let g = As_graph.add_p2p g t1a t1b in
  let g = As_graph.add_p2c g ~provider:t1a ~customer:m1 in
  let g = As_graph.add_p2c g ~provider:t1b ~customer:m2 in
  let g = As_graph.add_p2p g m1 m2 in
  let g = As_graph.add_p2c g ~provider:m1 ~customer:s1 in
  let g = As_graph.add_p2c g ~provider:m1 ~customer:s2 in
  let g = As_graph.add_p2c g ~provider:m2 ~customer:s2 in
  (g, t1a, t1b, m1, m2, s1, s2)

let test_relationship_invert () =
  Alcotest.(check string) "customer<->provider" "provider"
    (Relationship.to_string (Relationship.invert Relationship.Customer));
  Alcotest.(check string) "peer fixed" "peer"
    (Relationship.to_string (Relationship.invert Relationship.Peer));
  List.iter
    (fun r ->
      Alcotest.(check bool) "double inversion" true
        (Relationship.equal r (Relationship.invert (Relationship.invert r))))
    Relationship.all

let test_graph_symmetry () =
  let g, t1a, _, m1, _, _, _ = sample () in
  Alcotest.(check bool) "a sees customer" true
    (As_graph.relationship g t1a m1 = Some Relationship.Customer);
  Alcotest.(check bool) "b sees provider" true
    (As_graph.relationship g m1 t1a = Some Relationship.Provider);
  Alcotest.(check bool) "consistency" true
    (match As_graph.check_consistency g with Ok () -> true | Error _ -> false)

let test_graph_queries () =
  let g, t1a, t1b, m1, m2, s1, s2 = sample () in
  Alcotest.(check int) "as count" 6 (As_graph.as_count g);
  Alcotest.(check int) "edge count" 7 (As_graph.edge_count g);
  Alcotest.(check (list int)) "customers of m1"
    [ Asn.to_int s1; Asn.to_int s2 ]
    (List.map Asn.to_int (As_graph.customers g m1));
  Alcotest.(check (list int)) "providers of s2"
    [ Asn.to_int m1; Asn.to_int m2 ]
    (List.map Asn.to_int (As_graph.providers g s2));
  Alcotest.(check (list int)) "peers of t1a" [ Asn.to_int t1b ]
    (List.map Asn.to_int (As_graph.peers g t1a));
  Alcotest.(check int) "degree of m1" 4 (As_graph.degree g m1);
  Alcotest.(check bool) "s2 multihomed" true (As_graph.is_multihomed g s2);
  Alcotest.(check bool) "s1 single-homed" false (As_graph.is_multihomed g s1);
  Alcotest.(check bool) "s1 stub" true (As_graph.is_stub g s1);
  Alcotest.(check bool) "m1 not stub" false (As_graph.is_stub g m2)

let test_graph_self_loop () =
  Alcotest.check_raises "self loop rejected"
    (Invalid_argument "As_graph.add_edge: self-loop") (fun () ->
      ignore (As_graph.add_p2p As_graph.empty (asn 1) (asn 1)))

let test_graph_edges_roundtrip () =
  let g, _, _, _, _, _, _ = sample () in
  let g' = As_graph.of_edges (As_graph.to_edges g) in
  Alcotest.(check int) "same edges" (As_graph.edge_count g) (As_graph.edge_count g');
  List.iter
    (fun (a, b, rel) ->
      Alcotest.(check bool) "label preserved" true
        (As_graph.relationship g' a b = Some rel))
    (As_graph.to_edges g)

let test_graph_text_roundtrip () =
  let g, _, _, _, _, _, _ = sample () in
  match As_graph.parse_edges (As_graph.render_edges g) with
  | Error e -> Alcotest.fail e
  | Ok g' ->
      Alcotest.(check int) "edges preserved" (As_graph.edge_count g) (As_graph.edge_count g');
      List.iter
        (fun (a, b, rel) ->
          Alcotest.(check bool) "label preserved" true
            (As_graph.relationship g' a b = Some rel))
        (As_graph.to_edges g)

let test_graph_parse_errors () =
  Alcotest.(check bool) "junk rejected" true
    (match As_graph.parse_edges "AS1 AS2\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad relationship rejected" true
    (match As_graph.parse_edges "AS1 AS2 friend\n" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "comments fine" true
    (match As_graph.parse_edges "# header\n\nAS1 AS2 peer\n" with
    | Ok g -> As_graph.edge_count g = 1
    | Error _ -> false)

let test_graph_remove_edge () =
  let g, t1a, t1b, _, _, _, _ = sample () in
  let g = As_graph.remove_edge g t1a t1b in
  Alcotest.(check bool) "edge gone" false (As_graph.mem_edge g t1a t1b);
  Alcotest.(check bool) "reverse gone" false (As_graph.mem_edge g t1b t1a)

let test_customer_paths () =
  let g, t1a, t1b, m1, _, s1, s2 = sample () in
  Alcotest.(check bool) "direct" true (Paths.is_direct_customer g ~provider:m1 s1);
  Alcotest.(check bool) "indirect" true (Paths.is_customer g ~provider:t1a s1);
  Alcotest.(check bool) "not through peer" false (Paths.is_customer g ~provider:t1a (asn 40));
  Alcotest.(check bool) "t1b reaches s2" true (Paths.is_customer g ~provider:t1b s2);
  Alcotest.(check (option (list int))) "path found"
    (Some [ Asn.to_int t1a; Asn.to_int m1; Asn.to_int s1 ])
    (Option.map (List.map Asn.to_int) (Paths.customer_path g ~provider:t1a s1));
  Alcotest.(check bool) "self is not its own customer" false
    (Paths.is_customer g ~provider:t1a t1a)

let test_customer_cone () =
  let g, t1a, _, m1, _, _, _ = sample () in
  Alcotest.(check int) "cone of t1a" 3 (Paths.customer_cone_size g t1a);
  Alcotest.(check int) "cone of m1" 2 (Paths.customer_cone_size g m1);
  Alcotest.(check int) "cone of stub" 0 (Paths.customer_cone_size g (asn 50))

let test_valley_free () =
  let g, t1a, t1b, m1, m2, s1, s2 = sample () in
  (* Receiver-first paths. *)
  let vf path = Paths.is_valley_free g path in
  Alcotest.(check bool) "up only" true (vf [ m1; s1 ]);
  Alcotest.(check bool) "up peer down" true (vf [ t1a; t1b; m2; s2 ]);
  Alcotest.(check bool) "down after peer ok" true (vf [ m2; m1; s1 ]);
  (* Invalid: two peering edges (t1a-t1b then m1-m2 after descent is fine;
     construct peer after descent). *)
  Alcotest.(check bool) "peer after descent invalid" false (vf [ t1a; m1; m2 ]);
  (* Valley: descend to the stub and climb back out. *)
  Alcotest.(check bool) "valley invalid" false (vf [ m1; s2; m2 ]);
  Alcotest.(check bool) "unknown edge invalid" false (vf [ t1a; asn 999 ])

let test_classify_path () =
  let g, t1a, t1b, m1, _, s1, _ = sample () in
  Alcotest.(check bool) "customer route" true
    (Paths.classify_path g ~observer:t1a [ m1; s1 ] = Some Relationship.Customer);
  Alcotest.(check bool) "peer route" true
    (Paths.classify_path g ~observer:t1a [ t1b ] = Some Relationship.Peer);
  Alcotest.(check bool) "empty path" true (Paths.classify_path g ~observer:t1a [] = None)

let test_is_customer_path () =
  let g, t1a, _, m1, m2, s1, _ = sample () in
  Alcotest.(check bool) "descending chain" true (Paths.is_customer_path g [ t1a; m1; s1 ]);
  Alcotest.(check bool) "peer hop breaks it" false (Paths.is_customer_path g [ m1; m2 ])

let test_provider_chain () =
  let g, t1a, t1b, _, _, s1, _ = sample () in
  Alcotest.(check bool) "s1 climbs to t1a" true
    (Paths.provider_chain_exists g ~from_as:s1 t1a);
  Alcotest.(check bool) "s1 cannot climb to t1b" false
    (Paths.provider_chain_exists g ~from_as:s1 t1b)

let test_tier_classify () =
  let g, t1a, t1b, m1, m2, s1, s2 = sample () in
  let tiers = Tier.classify g in
  let tier a = Asn.Map.find a tiers in
  Alcotest.(check int) "t1a tier 1" 1 (tier t1a);
  Alcotest.(check int) "t1b tier 1" 1 (tier t1b);
  Alcotest.(check int) "m1 tier 2" 2 (tier m1);
  Alcotest.(check int) "m2 tier 2" 2 (tier m2);
  Alcotest.(check int) "s1 tier 3" 3 (tier s1);
  Alcotest.(check int) "s2 tier 3" 3 (tier s2);
  Alcotest.(check (list int)) "tier1 list"
    [ Asn.to_int t1a; Asn.to_int t1b ]
    (List.map Asn.to_int (Tier.tier1_ases g));
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 2); (2, 2); (3, 2) ]
    (Tier.histogram tiers)

(* --- Generator --- *)

let small_config =
  {
    Gen.default_config with
    Gen.n_tier1 = 5;
    n_tier2 = 20;
    n_tier3 = 60;
    n_stub = 150;
  }

(* The structural generator tests run on two inputs: the hand-sized
   config above and a 2,000-AS [scale_config] world. *)
let gen_inputs = [ ("small", small_config); ("scale 2000", Gen.scale_config ~n:2000) ]

let each_input ~seed f =
  List.iter (fun (name, config) -> f name config (Gen.generate ~config (Prng.create ~seed))) gen_inputs

let test_gen_counts () =
  each_input ~seed:1 (fun name config t ->
      Alcotest.(check int) (name ^ ": tier1 count") config.Gen.n_tier1 (List.length t.Gen.tier1);
      Alcotest.(check int) (name ^ ": tier2 count") config.Gen.n_tier2 (List.length t.Gen.tier2);
      let all = t.Gen.tier1 @ t.Gen.tier2 @ t.Gen.tier3 @ t.Gen.stubs in
      Alcotest.(check int) (name ^ ": total ASs") (List.length all) (As_graph.as_count t.Gen.graph);
      Alcotest.(check int) (name ^ ": no duplicate AS numbers") (List.length all)
        (List.length (List.sort_uniq Asn.compare all)))

let test_gen_clique () =
  each_input ~seed:2 (fun name _ t ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (Asn.equal a b) then
                Alcotest.(check bool) (name ^ ": tier1 pair peers") true
                  (As_graph.relationship t.Gen.graph a b = Some Relationship.Peer))
            t.Gen.tier1;
          Alcotest.(check (list int)) (name ^ ": tier1 has no providers") []
            (List.map Asn.to_int (As_graph.providers t.Gen.graph a)))
        t.Gen.tier1)

let test_gen_everyone_connected () =
  each_input ~seed:3 (fun name _ t ->
      List.iter
        (fun a ->
          Alcotest.(check bool) (name ^ ": has a provider") true
            (As_graph.providers t.Gen.graph a <> []))
        (t.Gen.tier2 @ t.Gen.tier3 @ t.Gen.stubs))

let test_gen_deterministic () =
  each_input ~seed:7 (fun name config t1 ->
      let t2 = Gen.generate ~config (Prng.create ~seed:7) in
      Alcotest.(check int) (name ^ ": same edge count")
        (As_graph.edge_count t1.Gen.graph) (As_graph.edge_count t2.Gen.graph);
      Alcotest.(check bool) (name ^ ": same edges") true
        (As_graph.to_edges t1.Gen.graph = As_graph.to_edges t2.Gen.graph))

let test_gen_ground_truth_tiers () =
  let rng = Prng.create ~seed:4 in
  let t = Gen.generate ~config:small_config rng in
  let truth = Gen.tiers_ground_truth t in
  let computed = Tier.classify t.Gen.graph in
  (* Generated tier-1s are exactly the provider-free ASs. *)
  List.iter
    (fun a -> Alcotest.(check int) "tier1 as classified" 1 (Asn.Map.find a computed))
    t.Gen.tier1;
  Alcotest.(check int) "truth covers all" (As_graph.as_count t.Gen.graph)
    (Asn.Map.cardinal truth)

let test_gen_famous_cast () =
  let rng = Prng.create ~seed:8 in
  let t = Gen.generate ~config:small_config rng in
  (* The first Tier-1 slots carry the paper's AS numbers, in order. *)
  Alcotest.(check (list int)) "tier1 cast" [ 1; 7018; 3549; 1239; 701 ]
    (List.map Asn.to_int t.Gen.tier1);
  (* Dynamic numbers start at the documented base and never collide with
     the famous pool. *)
  List.iter
    (fun a ->
      let n = Asn.to_int a in
      Alcotest.(check bool) "dynamic range" true (n >= Gen.first_dynamic_asn))
    t.Gen.stubs

let test_gen_consistency () =
  each_input ~seed:5 (fun name _ t ->
      Alcotest.(check bool) (name ^ ": graph consistent") true
        (match As_graph.check_consistency t.Gen.graph with Ok () -> true | Error _ -> false))

let test_gen_valley_free_everywhere () =
  (* Every generated customer path must validate as valley-free. *)
  let rng = Prng.create ~seed:6 in
  let t = Gen.generate ~config:small_config rng in
  let g = t.Gen.graph in
  List.iter
    (fun s ->
      match As_graph.providers g s with
      | p1 :: _ -> begin
          match As_graph.providers g p1 with
          | p2 :: _ -> Alcotest.(check bool) "2-level chain vf" true (Paths.is_valley_free g [ p2; p1; s ])
          | [] -> ()
        end
      | [] -> ())
    t.Gen.stubs

(* --- Generator output pin ---

   Every scenario, golden and perfbench world comes out of [Gen.generate],
   so its exact PRNG draws are part of its contract: a rewrite must make
   the same calls in the same order.  Each (config, seed) pair below pins
   the md5 of [As_graph.render_edges] and of the four tier lists.  The
   goldens see these draws only through seed 42's default topology.

   Regenerating after an INTENDED change:

     dune exec test/test_topo.exe -- test generator

   fails on the pin case and prints the recomputed table in this file's
   syntax; paste it over [generate_pins].  Regenerate only when the change
   is understood and deliberate. *)

let pin_configs =
  [
    ("test_topo small", small_config);
    ("scenario small", Rpi_dataset.Scenario.small_config.Rpi_dataset.Scenario.topology);
    (* rpicheck's pocket topology (Rpi_check.Gen.pocket_config). *)
    ( "rpicheck pocket",
      {
        Gen.default_config with
        Gen.n_tier1 = 4;
        n_tier2 = 8;
        n_tier3 = 16;
        n_stub = 60;
        sibling_pairs = 2;
      } );
    ("default", Gen.default_config);
    ("scale 1000", Gen.scale_config ~n:1000);
    ("scale 2000", Gen.scale_config ~n:2000);
  ]

let generate_pins =
  [
    ("test_topo small", 1, "eb29ea11a26aa88ff3d7b638978cf7c8", "1e9c211832eb2dd62681cac7c1042d75");
    ("test_topo small", 2, "b509607f354e752ef68d356f1154651d", "1e9c211832eb2dd62681cac7c1042d75");
    ("test_topo small", 3, "a6a5ed1d223d2dbf48e90aca131146fe", "1e9c211832eb2dd62681cac7c1042d75");
    ("scenario small", 1, "959a0086f25cac8013e1f7ac4bb2d7e8", "8c60087d32a3b6fab846a7d1d203fd05");
    ("scenario small", 2, "a8725dad1b0121fc1c17206ba0fe7d13", "8c60087d32a3b6fab846a7d1d203fd05");
    ("scenario small", 3, "6041ca0b34cff6cde99744d327cd6b53", "8c60087d32a3b6fab846a7d1d203fd05");
    ("rpicheck pocket", 1, "b232896753d7bde18b12aac78b68a152", "b2da090605255c9682173b7dbc84850e");
    ("rpicheck pocket", 2, "1305e695ed5798846dbfdb53c7535e4c", "b2da090605255c9682173b7dbc84850e");
    ("rpicheck pocket", 3, "80e32f5461840ca898a0ea16f6f61a9a", "b2da090605255c9682173b7dbc84850e");
    ("default", 1, "d515b2403a5de2c03df1465bcf64ee5b", "70a111962f6c8642eba0fda68f38ddd1");
    ("default", 2, "2dddd1a5671c04f586f0f048d8ae8f17", "70a111962f6c8642eba0fda68f38ddd1");
    ("default", 3, "ea7e66606710f69a48b0dc785672891c", "70a111962f6c8642eba0fda68f38ddd1");
    ("scale 1000", 1, "45e496e077b91189bc23825086a37b8d", "1be372820f8a3d76f7f3b7a7f86c10eb");
    ("scale 1000", 2, "c25f7a3a6e3f2efe37098bfc0ebe14a3", "1be372820f8a3d76f7f3b7a7f86c10eb");
    ("scale 1000", 3, "aad5f8d6e05353056005655892ec4962", "1be372820f8a3d76f7f3b7a7f86c10eb");
    ("scale 2000", 1, "669810f090a8809185f0cbe6588275f4", "e2856561203d01a30d4c1c9368ae0fff");
    ("scale 2000", 2, "db4d10ca8e06af5e931d045072e6aded", "e2856561203d01a30d4c1c9368ae0fff");
    ("scale 2000", 3, "e6d7fbdb55e6b3d39478d9ad276fd8ea", "e2856561203d01a30d4c1c9368ae0fff");
  ]

let generate_digests name config seed =
  let t = Gen.generate ~config (Prng.create ~seed) in
  let tier ases = String.concat " " (List.map Asn.to_label ases) in
  let tiers = String.concat "\n" (List.map tier [ t.Gen.tier1; t.Gen.tier2; t.Gen.tier3; t.Gen.stubs ]) in
  ( name,
    seed,
    Digest.to_hex (Digest.string (As_graph.render_edges t.Gen.graph)),
    Digest.to_hex (Digest.string tiers) )

let test_generate_pin () =
  let actual =
    List.concat_map
      (fun (name, config) -> List.map (generate_digests name config) [ 1; 2; 3 ])
      pin_configs
  in
  if actual <> generate_pins then
    Alcotest.failf "generate output moved; recomputed table:\nlet generate_pins =\n  [\n%s  ]\n"
      (String.concat ""
         (List.map
            (fun (name, seed, edges, tiers) ->
              Printf.sprintf "    (%S, %d, %S, %S);\n" name seed edges tiers)
            actual))

(* --- Config validation and scale configs --- *)

let test_gen_validate () =
  let ok c = match Gen.validate c with Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "default config valid" true (ok Gen.default_config);
  Alcotest.(check bool) "small config valid" true (ok small_config);
  let reject name c =
    match Gen.validate c with
    | Error msg ->
        Alcotest.(check bool) (name ^ ": message non-empty") true (String.length msg > 0)
    | Ok () -> Alcotest.failf "%s: expected Error" name
  in
  reject "one tier1" { Gen.default_config with Gen.n_tier1 = 1 };
  reject "negative stubs" { Gen.default_config with Gen.n_stub = -1 };
  reject "zero providers" { Gen.default_config with Gen.max_providers = 0 };
  reject "negative siblings" { Gen.default_config with Gen.sibling_pairs = -1 };
  (* A sibling target above the achievable pair count is allowed: the
     generator plants what it can and stops at the attempts cap. *)
  Alcotest.(check bool) "sibling target above pair count is a target, not an error" true
    (ok { Gen.default_config with Gen.n_tier3 = 2; sibling_pairs = 5 });
  reject "bad tier3 mix" { Gen.default_config with Gen.tier3_upstream_mix = (0.9, 0.3) };
  reject "negative stub mix"
    { Gen.default_config with Gen.stub_upstream_mix = (1.2, 0.3, -0.5) };
  reject "asn budget" { Gen.default_config with Gen.n_stub = max_int / 2 };
  reject "bad multihoming" { Gen.default_config with Gen.multihoming_prob = 1.5 };
  reject "nan multihoming" { Gen.default_config with Gen.multihoming_prob = Float.nan };
  reject "nan tier12 peering"
    { Gen.default_config with Gen.tier12_peering_fraction = Float.nan };
  reject "negative tier2 peering degree"
    { Gen.default_config with Gen.tier2_peering_degree = -1.0 };
  reject "nan tier3 peering degree"
    { Gen.default_config with Gen.tier3_peering_degree = Float.nan };
  reject "infinite tier3 peering degree"
    { Gen.default_config with Gen.tier3_peering_degree = Float.infinity };
  (* generate surfaces the same message as Invalid_argument. *)
  let bad = { Gen.default_config with Gen.n_tier1 = 1 } in
  match Gen.validate bad with
  | Ok () -> Alcotest.fail "expected Error for n_tier1 = 1"
  | Error msg ->
      Alcotest.check_raises "generate raises validate's message"
        (Invalid_argument ("Gen.generate: " ^ msg))
        (fun () -> ignore (Gen.generate ~config:bad (Prng.create ~seed:1)))

let test_scale_config () =
  List.iter
    (fun n ->
      let c = Gen.scale_config ~n in
      (match Gen.validate c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "scale_config ~n:%d invalid: %s" n e);
      let total = c.Gen.n_tier1 + c.Gen.n_tier2 + c.Gen.n_tier3 + c.Gen.n_stub in
      Alcotest.(check int) (Printf.sprintf "total at %d" n) n total;
      Alcotest.(check bool)
        (Printf.sprintf "heavy-tailed shape at %d" n)
        true
        (c.Gen.n_stub > c.Gen.n_tier3
        && c.Gen.n_tier3 > c.Gen.n_tier2
        && c.Gen.n_tier2 > c.Gen.n_tier1))
    [ 1000; 5000; 15000; 100000 ];
  Alcotest.check_raises "rejects tiny n"
    (Invalid_argument "Gen.scale_config: need at least 64 ASs") (fun () ->
      ignore (Gen.scale_config ~n:10))

let test_scaled_roundtrip_15k () =
  (* The paper-scale guarantee: a 15k-AS world from the generator behind
     every scenario survives both the textual and the structural
     round-trip unchanged. *)
  let t = Gen.generate ~config:(Gen.scale_config ~n:15000) (Prng.create ~seed:11) in
  let g = t.Gen.graph in
  Alcotest.(check int) "as count" 15000 (As_graph.as_count g);
  Alcotest.(check bool) "consistent" true
    (match As_graph.check_consistency g with Ok () -> true | Error _ -> false);
  (match As_graph.parse_edges (As_graph.render_edges g) with
  | Error e -> Alcotest.failf "render/parse failed: %s" e
  | Ok g' ->
      Alcotest.(check bool) "render/parse round-trip" true
        (As_graph.to_edges g = As_graph.to_edges g'));
  let g'' = As_graph.of_edges (As_graph.to_edges g) in
  Alcotest.(check bool) "of_edges round-trip" true
    (As_graph.to_edges g = As_graph.to_edges g'')

(* --- CSR freeze --- *)

module Csr = Rpi_topo.Csr

let test_csr_of_graph () =
  let t = Gen.generate ~config:small_config (Prng.create ~seed:3) in
  let g = t.Gen.graph in
  let c = Csr.of_graph g in
  Alcotest.(check int) "node count" (As_graph.as_count g) (Csr.node_count c);
  Alcotest.(check int) "two directed slots per edge" (2 * As_graph.edge_count g)
    (Csr.edge_count c);
  Array.iteri
    (fun i asn ->
      let nbs = As_graph.neighbors g asn in
      Alcotest.(check int) "degree" (List.length nbs) (Csr.degree c i);
      List.iteri
        (fun k (nb, rel) ->
          let e = c.Csr.off.(i) + k in
          Alcotest.(check bool) "row order mirrors As_graph.neighbors" true
            (Asn.equal c.Csr.dst_asn.(e) nb);
          Alcotest.(check bool) "relationship label" true
            (Relationship.equal c.Csr.rel.(e) rel);
          let back = c.Csr.back.(e) in
          Alcotest.(check int) "back edge returns home" i c.Csr.dst.(back);
          Alcotest.(check int) "back is an involution" e c.Csr.back.(back))
        nbs)
    c.Csr.ases

(* --- Properties --- *)

(* --- Churn generator --- *)

module Churn = Rpi_topo.Churn

(* Three topology regimes the churn suite runs under: a pocket-sized
   world, a mid-size hierarchy and the full small_config. *)
let churn_regimes =
  [
    ( "pocket",
      { Gen.default_config with Gen.n_tier1 = 2; n_tier2 = 3; n_tier3 = 4; n_stub = 6 } );
    ( "mid",
      { Gen.default_config with Gen.n_tier1 = 3; n_tier2 = 6; n_tier3 = 10; n_stub = 20 } );
    ("small", small_config);
  ]

let churn_stream ~topo_seed ~churn_seed config epochs =
  let topo = Gen.generate ~config (Prng.create ~seed:topo_seed) in
  let atom_ids = [ 1; 2; 3; 4 ] in
  let stream =
    Churn.generate
      (Prng.create ~seed:churn_seed)
      ~graph:topo.Gen.graph ~atom_ids ~epochs
  in
  (topo.Gen.graph, atom_ids, stream)

let test_churn_deterministic () =
  List.iter
    (fun (name, config) ->
      let _, _, s1 = churn_stream ~topo_seed:5 ~churn_seed:11 config 150 in
      let _, _, s2 = churn_stream ~topo_seed:5 ~churn_seed:11 config 150 in
      let _, _, s3 = churn_stream ~topo_seed:5 ~churn_seed:12 config 150 in
      Alcotest.(check string)
        (name ^ ": same seed is byte-identical")
        (Churn.render s1) (Churn.render s2);
      Alcotest.(check bool)
        (name ^ ": disjoint seeds diverge")
        false
        (String.equal (Churn.render s1) (Churn.render s3));
      Alcotest.(check bool)
        (name ^ ": stream is non-trivial")
        true
        (String.length (Churn.render s1) > 0))
    churn_regimes

(* Replay every stream against a state machine of the world it was drawn
   from: each event must be applicable at its position — links only go
   down when up and up when down, relationship migrations always change
   the label of a real link, withdrawals and announcements alternate per
   atom, and no event names an AS pair or atom outside the universe. *)
let test_churn_applicable () =
  List.iter
    (fun (name, config) ->
      let graph, atom_ids, stream = churn_stream ~topo_seed:9 ~churn_seed:23 config 150 in
      let links = Hashtbl.create 256 in
      let key a b =
        let x = Asn.to_int a and y = Asn.to_int b in
        (min x y, max x y)
      in
      As_graph.fold_edges
        (fun a b rel () -> Hashtbl.replace links (key a b) (true, rel))
        graph ();
      let atoms = Hashtbl.create 8 in
      List.iter (fun id -> Hashtbl.replace atoms id true) atom_ids;
      let fail_ev index ev msg =
        Alcotest.failf "%s: epoch %d, %s: %s" name index (Churn.render_event ev) msg
      in
      List.iter
        (fun (ep : Churn.epoch) ->
          List.iter
            (fun ev ->
              match ev with
              | Churn.Link_down (a, b) -> begin
                  match Hashtbl.find_opt links (key a b) with
                  | None -> fail_ev ep.Churn.index ev "unknown link"
                  | Some (false, _) -> fail_ev ep.Churn.index ev "already down"
                  | Some (true, rel) -> Hashtbl.replace links (key a b) (false, rel)
                end
              | Churn.Link_up (a, b) -> begin
                  match Hashtbl.find_opt links (key a b) with
                  | None -> fail_ev ep.Churn.index ev "unknown link"
                  | Some (true, _) -> fail_ev ep.Churn.index ev "already up"
                  | Some (false, rel) -> Hashtbl.replace links (key a b) (true, rel)
                end
              | Churn.Rel_change (a, b, rel) -> begin
                  match Hashtbl.find_opt links (key a b) with
                  | None -> fail_ev ep.Churn.index ev "unknown link"
                  | Some (up, old_rel) ->
                      if Relationship.equal rel old_rel then
                        fail_ev ep.Churn.index ev "label unchanged";
                      Hashtbl.replace links (key a b) (up, rel)
                end
              | Churn.Withdraw id -> begin
                  match Hashtbl.find_opt atoms id with
                  | None -> fail_ev ep.Churn.index ev "unknown atom"
                  | Some false -> fail_ev ep.Churn.index ev "already withdrawn"
                  | Some true -> Hashtbl.replace atoms id false
                end
              | Churn.Announce id -> begin
                  match Hashtbl.find_opt atoms id with
                  | None -> fail_ev ep.Churn.index ev "unknown atom"
                  | Some true -> fail_ev ep.Churn.index ev "already announced"
                  | Some false -> Hashtbl.replace atoms id true
                end)
            ep.Churn.events)
        stream)
    churn_regimes

(* Downed links and withdrawn atoms always come back: every outage heals
   within its configured max_*_epochs horizon, so anything still down or
   out at the end of the stream must have been hit inside the final
   window. *)
let test_churn_revives () =
  let epochs = 200 in
  List.iter
    (fun (name, config) ->
      let _, _, stream = churn_stream ~topo_seed:3 ~churn_seed:31 config epochs in
      let down = Hashtbl.create 16 in
      let out = Hashtbl.create 8 in
      List.iter
        (fun (ep : Churn.epoch) ->
          List.iter
            (fun ev ->
              match ev with
              | Churn.Link_down (a, b) ->
                  Hashtbl.replace down (Asn.to_int a, Asn.to_int b) ep.Churn.index
              | Churn.Link_up (a, b) -> Hashtbl.remove down (Asn.to_int a, Asn.to_int b)
              | Churn.Withdraw id -> Hashtbl.replace out id ep.Churn.index
              | Churn.Announce id -> Hashtbl.remove out id
              | Churn.Rel_change _ -> ())
            ep.Churn.events)
        stream;
      let { Churn.max_down_epochs; max_out_epochs; _ } = Churn.default_config in
      Hashtbl.iter
        (fun (a, b) at ->
          if at < epochs - 1 - max_down_epochs then
            Alcotest.failf "%s: link AS%d-AS%d downed at %d never revived" name a b at)
        down;
      Hashtbl.iter
        (fun id at ->
          if at < epochs - 1 - max_out_epochs then
            Alcotest.failf "%s: atom %d withdrawn at %d never re-announced" name id at)
        out)
    churn_regimes

let prop_gen_multihoming_rate =
  QCheck2.Test.make ~name:"multihoming rate tracks config" ~count:5
    QCheck2.Gen.(int_range 1 10000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let t = Gen.generate ~config:small_config rng in
      let g = t.Gen.graph in
      let non_t1 = t.Gen.tier2 @ t.Gen.tier3 @ t.Gen.stubs in
      let multi = List.length (List.filter (As_graph.is_multihomed g) non_t1) in
      let rate = float_of_int multi /. float_of_int (List.length non_t1) in
      rate > 0.4 && rate < 0.8)

let prop_tier_monotone =
  QCheck2.Test.make ~name:"customer tier strictly below best provider" ~count:5
    QCheck2.Gen.(int_range 1 10000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let t = Gen.generate ~config:small_config rng in
      let g = t.Gen.graph in
      let tiers = Tier.classify g in
      List.for_all
        (fun a ->
          match As_graph.providers g a with
          | [] -> Asn.Map.find a tiers = 1
          | providers ->
              let best = List.fold_left (fun acc p -> min acc (Asn.Map.find p tiers)) max_int providers in
              Asn.Map.find a tiers = best + 1)
        (As_graph.ases g))

let () =
  Alcotest.run "rpi_topo"
    [
      ( "graph",
        [
          Alcotest.test_case "relationship invert" `Quick test_relationship_invert;
          Alcotest.test_case "symmetry" `Quick test_graph_symmetry;
          Alcotest.test_case "queries" `Quick test_graph_queries;
          Alcotest.test_case "self loop" `Quick test_graph_self_loop;
          Alcotest.test_case "edges roundtrip" `Quick test_graph_edges_roundtrip;
          Alcotest.test_case "text roundtrip" `Quick test_graph_text_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_graph_parse_errors;
          Alcotest.test_case "remove edge" `Quick test_graph_remove_edge;
        ] );
      ( "paths",
        [
          Alcotest.test_case "customer paths" `Quick test_customer_paths;
          Alcotest.test_case "customer cone" `Quick test_customer_cone;
          Alcotest.test_case "valley free" `Quick test_valley_free;
          Alcotest.test_case "classify path" `Quick test_classify_path;
          Alcotest.test_case "is customer path" `Quick test_is_customer_path;
          Alcotest.test_case "provider chain" `Quick test_provider_chain;
        ] );
      ("tier", [ Alcotest.test_case "classify" `Quick test_tier_classify ]);
      ("csr", [ Alcotest.test_case "of_graph mirrors As_graph" `Quick test_csr_of_graph ]);
      ( "generator",
        [
          Alcotest.test_case "counts" `Quick test_gen_counts;
          Alcotest.test_case "tier1 clique" `Quick test_gen_clique;
          Alcotest.test_case "everyone connected" `Quick test_gen_everyone_connected;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "ground truth tiers" `Quick test_gen_ground_truth_tiers;
          Alcotest.test_case "famous cast" `Quick test_gen_famous_cast;
          Alcotest.test_case "consistency" `Quick test_gen_consistency;
          Alcotest.test_case "valley free chains" `Quick test_gen_valley_free_everywhere;
          Alcotest.test_case "output pinned per config and seed" `Quick test_generate_pin;
          Alcotest.test_case "validate" `Quick test_gen_validate;
          Alcotest.test_case "scale config" `Quick test_scale_config;
          Alcotest.test_case "15k round-trip" `Quick test_scaled_roundtrip_15k;
        ] );
      ( "churn",
        [
          Alcotest.test_case "deterministic in the seed" `Quick test_churn_deterministic;
          Alcotest.test_case "every event applicable" `Quick test_churn_applicable;
          Alcotest.test_case "outages always heal" `Quick test_churn_revives;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_gen_multihoming_rate; prop_tier_monotone ] );
    ]
