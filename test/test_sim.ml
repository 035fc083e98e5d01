(* Tests for the propagation engine, vantage extraction and timeline,
   anchored on the worked examples of the paper (Figs. 3, 5, 8). *)

module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Prefix = Rpi_net.Prefix
module Atom = Rpi_sim.Atom
module Policy = Rpi_sim.Policy
module Engine = Rpi_sim.Engine
module Vantage = Rpi_sim.Vantage
module Timeline = Rpi_sim.Timeline
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route

let asn = Asn.of_int
let p s = Prefix.of_string_exn s

let default_import _ = Policy.default_import

let check_path msg expected route =
  match route with
  | None -> Alcotest.failf "%s: no route" msg
  | Some r ->
      Alcotest.(check (list int))
        msg expected
        (List.map Asn.to_int r.Engine.path)

(* Fig. 3: provider D with customer B; customer A below B and C; A
   announces prefix p to C only.  D peers with E; E is above C.  D must see
   p via its peer E, not via its customer B. *)
let fig3_graph () =
  let a = asn 10 and b = asn 20 and c = asn 30 and d = asn 40 and e = asn 50 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:d ~customer:b in
  let g = As_graph.add_p2c g ~provider:b ~customer:a in
  let g = As_graph.add_p2c g ~provider:c ~customer:a in
  let g = As_graph.add_p2c g ~provider:e ~customer:c in
  let g = As_graph.add_p2p g d e in
  (g, a, b, c, d, e)

let test_fig3_selective () =
  let g, a, _b, c, d, e = fig3_graph () in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom =
    Atom.make ~id:1 ~origin:a
      ~provider_scope:(Atom.Only_providers (Asn.Set.singleton c))
      [ p "10.0.0.0/24" ]
  in
  let retain = Asn.Set.of_list [ a; c; d; e ] in
  let result = Engine.propagate net ~retain atom in
  Alcotest.(check bool) "converged" true result.Engine.converged;
  (* D's best route goes through peer E, not customer B. *)
  check_path "route at D" [ Asn.to_int e; Asn.to_int c; Asn.to_int a ]
    (Engine.best_at result d);
  begin
    match Engine.best_at result d with
    | Some r ->
        Alcotest.(check bool)
          "D learned from peer" true
          (match r.Engine.rel with
          | Some Relationship.Peer -> true
          | Some _ | None -> false)
    | None -> Alcotest.fail "no route at D"
  end

let test_fig3_announce_all () =
  let g, a, b, _c, d, _e = fig3_graph () in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom = Atom.vanilla ~id:2 ~origin:a [ p "10.0.0.0/24" ] in
  let result = Engine.propagate net ~retain:(Asn.Set.singleton d) atom in
  (* With announce-to-all, D prefers the customer path through B. *)
  check_path "route at D" [ Asn.to_int b; Asn.to_int a ] (Engine.best_at result d)

(* Fig. 5: AS1 has customer AS852, which has customer AS6280.  AS6280 also
   connects (via AS13768) to AS3549, a peer of AS1.  When AS6280 announces
   only towards AS13768, AS1 reaches it via its peer AS3549. *)
let test_fig5 () =
  let as1 = asn 1 and as852 = asn 852 and as6280 = asn 6280 in
  let as3549 = asn 3549 and as13768 = asn 13768 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:as1 ~customer:as852 in
  let g = As_graph.add_p2c g ~provider:as852 ~customer:as6280 in
  let g = As_graph.add_p2c g ~provider:as13768 ~customer:as6280 in
  let g = As_graph.add_p2c g ~provider:as3549 ~customer:as13768 in
  let g = As_graph.add_p2p g as1 as3549 in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom =
    Atom.make ~id:3 ~origin:as6280
      ~provider_scope:(Atom.Only_providers (Asn.Set.singleton as13768))
      [ p "20.0.0.0/24" ]
  in
  let result = Engine.propagate net ~retain:(Asn.Set.singleton as1) atom in
  check_path "AS1 reaches its customer via peer AS3549"
    [ 3549; 13768; 6280 ] (Engine.best_at result as1)

(* No-export-up community: the origin announces to its provider with the
   tag; the provider uses the route but does not pass it to its own
   providers or peers. *)
let test_no_export_up () =
  let top = asn 100 and mid = asn 200 and leaf = asn 300 and side = asn 400 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:top ~customer:mid in
  let g = As_graph.add_p2c g ~provider:mid ~customer:leaf in
  let g = As_graph.add_p2c g ~provider:mid ~customer:side in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom =
    Atom.make ~id:4 ~origin:leaf ~no_export_up:(Asn.Set.singleton mid)
      [ p "30.0.0.0/24" ]
  in
  let retain = Asn.Set.of_list [ top; mid; side ] in
  let result = Engine.propagate net ~retain atom in
  Alcotest.(check bool)
    "mid still has the route" true
    (match Engine.best_at result mid with Some _ -> true | None -> false);
  Alcotest.(check bool)
    "top does not receive it" true
    (match Engine.best_at result top with None -> true | Some _ -> false);
  (* Down-stream export is allowed. *)
  check_path "side still reachable" [ Asn.to_int mid; Asn.to_int leaf ]
    (Engine.best_at result side)

(* Aggregation suppression: the provider accepts the customer route but
   never re-exports it. *)
let test_suppressed_at () =
  let top = asn 100 and agg = asn 200 and other = asn 250 and leaf = asn 300 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:top ~customer:agg in
  let g = As_graph.add_p2c g ~provider:top ~customer:other in
  let g = As_graph.add_p2c g ~provider:agg ~customer:leaf in
  let g = As_graph.add_p2c g ~provider:other ~customer:leaf in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom =
    Atom.make ~id:5 ~origin:leaf ~suppressed_at:(Asn.Set.singleton agg)
      [ p "40.0.0.0/24" ]
  in
  let result = Engine.propagate net ~retain:(Asn.Set.of_list [ top; agg ]) atom in
  (* top can only hear it via [other]. *)
  check_path "top hears via other" [ Asn.to_int other; Asn.to_int leaf ]
    (Engine.best_at result top);
  check_path "aggregator holds the customer route" [ Asn.to_int leaf ]
    (Engine.best_at result agg)

(* Peer withholding. *)
let test_withhold_peer () =
  let a = asn 100 and b = asn 200 and c = asn 300 in
  let g = As_graph.empty in
  let g = As_graph.add_p2p g a b in
  let g = As_graph.add_p2p g a c in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom =
    Atom.make ~id:6 ~origin:a ~withhold_peers:(Asn.Set.singleton b)
      [ p "50.0.0.0/24" ]
  in
  let result = Engine.propagate net ~retain:(Asn.Set.of_list [ b; c ]) atom in
  Alcotest.(check bool)
    "withheld peer gets nothing" true
    (match Engine.best_at result b with None -> true | Some _ -> false);
  check_path "other peer served" [ Asn.to_int a ] (Engine.best_at result c)

(* Valley-free discipline: a peer route must not be re-exported to peers. *)
let test_no_peer_transit () =
  let a = asn 100 and b = asn 200 and c = asn 300 in
  let g = As_graph.empty in
  let g = As_graph.add_p2p g a b in
  let g = As_graph.add_p2p g b c in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom = Atom.vanilla ~id:7 ~origin:a [ p "60.0.0.0/24" ] in
  let result = Engine.propagate net ~retain:(Asn.Set.of_list [ b; c ]) atom in
  Alcotest.(check bool)
    "b hears from peer" true
    (match Engine.best_at result b with Some _ -> true | None -> false);
  Alcotest.(check bool)
    "c is not served across two peer hops" true
    (match Engine.best_at result c with None -> true | Some _ -> false)

(* Local preference beats path length: a longer customer path is preferred
   to a shorter peer path. *)
let test_lp_beats_length () =
  let top = asn 10 and m1 = asn 20 and m2 = asn 30 and o = asn 40 in
  let g = As_graph.empty in
  (* top -> m1 -> m2 -> o (customer chain), and top peers with o's other
     provider m3 giving a 2-hop peer path. *)
  let m3 = asn 50 in
  let g = As_graph.add_p2c g ~provider:top ~customer:m1 in
  let g = As_graph.add_p2c g ~provider:m1 ~customer:m2 in
  let g = As_graph.add_p2c g ~provider:m2 ~customer:o in
  let g = As_graph.add_p2c g ~provider:m3 ~customer:o in
  let g = As_graph.add_p2p g top m3 in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom = Atom.vanilla ~id:8 ~origin:o [ p "70.0.0.0/24" ] in
  let result = Engine.propagate net ~retain:(Asn.Set.singleton top) atom in
  check_path "customer path wins despite extra hops"
    [ Asn.to_int m1; Asn.to_int m2; Asn.to_int o ]
    (Engine.best_at result top);
  (* Ablation: without local preference, the shorter peer path wins.  We
     model it by a flat import policy. *)
  let flat _ =
    { Policy.default_import with Policy.lp_customer = 100; lp_peer = 100; lp_provider = 100 }
  in
  let net_flat = Engine.prepare ~graph:g ~import:flat () in
  let result_flat = Engine.propagate net_flat ~retain:(Asn.Set.singleton top) atom in
  check_path "shortest path wins without local-pref"
    [ Asn.to_int m3; Asn.to_int o ]
    (Engine.best_at result_flat top)

(* BAD GADGET: the canonical dispute wheel.  Vanilla BGP oscillates
   against the step cap; NS-BGP converges, with every rim AS settling on
   the route its preferred peer relays. *)
let test_bad_gadget () =
  let graph, import = Rpi_sim.Gadget.bad_gadget () in
  let net = Engine.prepare ~graph ~import () in
  let retain = Asn.Set.of_list (As_graph.ases graph) in
  let atom = Atom.vanilla ~id:0 ~origin:(asn 64500) [ p "192.0.2.0/24" ] in
  let vanilla = Engine.propagate net ~retain atom in
  Alcotest.(check bool) "vanilla oscillates" false vanilla.Engine.converged;
  let ns =
    Engine.propagate net ~retain
      ~decision:Rpi_sim.Decision.neighbor_specific atom
  in
  Alcotest.(check bool) "NS-BGP converges" true ns.Engine.converged;
  (* Each rim AS ends up on the 2-hop route through the next peer around
     the wheel, at the elevated preference the gadget assigns it. *)
  List.iter
    (fun (holder, via) ->
      match Engine.best_at ns (asn holder) with
      | None -> Alcotest.failf "AS%d has no route" holder
      | Some r ->
          Alcotest.(check (list int))
            (Printf.sprintf "AS%d best path" holder)
            [ via; 64500 ]
            (List.map Asn.to_int r.Engine.path);
          Alcotest.(check int)
            (Printf.sprintf "AS%d local pref" holder)
            120 r.Engine.lp)
    [ (64501, 64502); (64502, 64503); (64503, 64501) ];
  (* The wheel only turns while rim routes outrank customer routes: with
     the elevated preference below the customer class the gadget is an
     ordinary Gao–Rexford instance and vanilla converges too. *)
  let tame_graph, tame_import = Rpi_sim.Gadget.bad_gadget ~pref_rim:90 () in
  let tame = Engine.prepare ~graph:tame_graph ~import:tame_import () in
  let tame_result = Engine.propagate tame ~retain atom in
  Alcotest.(check bool) "tame wheel converges under vanilla" true
    tame_result.Engine.converged

(* --- Incremental repropagation deltas --- *)

module Delta = Engine.Delta

let tables_equal_modulo_steps (ra : Engine.result) (rb : Engine.result) =
  ra.Engine.converged = rb.Engine.converged
  && Asn.Map.equal
       (fun (ta : Engine.table) (tb : Engine.table) ->
         ta.Engine.best = tb.Engine.best && ta.Engine.candidates = tb.Engine.candidates)
       ra.Engine.tables rb.Engine.tables

(* A link flap re-converges: downing the customer link reroutes D onto the
   peer path, reviving it restores the original batch fixpoint
   byte-for-byte (candidate order included). *)
let test_delta_link_flap () =
  let g, a, b, c, d, e = fig3_graph () in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let retain = Asn.Set.of_list [ a; b; c; d; e ] in
  let atom = Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24" ] in
  let st = Engine.init_state net in
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Announce atom ] in
  let batch = Engine.propagate net ~retain atom in
  begin
    match Engine.state_results st ~retain with
    | [ r ] ->
        Alcotest.(check bool) "announce matches batch" true
          (tables_equal_modulo_steps r batch)
    | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)
  end;
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Link_down (a, b) ] in
  begin
    match Engine.state_results st ~retain with
    | [ r ] ->
        check_path "D rerouted via peer E while a-b is down"
          [ Asn.to_int e; Asn.to_int c; Asn.to_int a ]
          (Engine.best_at r d)
    | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)
  end;
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Link_up (a, b) ] in
  match Engine.state_results st ~retain with
  | [ r ] ->
      Alcotest.(check bool) "flap restores the batch fixpoint" true
        (tables_equal_modulo_steps r batch)
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

(* Downing the only adjacency invalidates the sole candidate in place:
   everything above the cut loses the route, and withdrawing the atom
   empties the state. *)
let test_delta_withdraw_clears () =
  let top = asn 1 and mid = asn 2 and leaf = asn 3 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:top ~customer:mid in
  let g = As_graph.add_p2c g ~provider:mid ~customer:leaf in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let retain = Asn.Set.of_list [ top; mid ] in
  let atom = Atom.vanilla ~id:1 ~origin:leaf [ p "10.0.0.0/24" ] in
  let st = Engine.init_state net in
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Announce atom ] in
  begin
    match Engine.state_results st ~retain with
    | [ r ] ->
        check_path "top reaches the leaf" [ 2; 3 ] (Engine.best_at r top)
    | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)
  end;
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Link_down (mid, leaf) ] in
  begin
    match Engine.state_results st ~retain with
    | [ r ] ->
        Alcotest.(check bool) "mid's only candidate cleared" true
          (Engine.best_at r mid = None);
        Alcotest.(check bool) "top's derived route cleared" true
          (Engine.best_at r top = None)
    | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)
  end;
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Withdraw 1 ] in
  Alcotest.(check int) "withdraw empties the state" 0
    (List.length (Engine.state_results st ~retain));
  Alcotest.(check int) "no atoms left" 0 (List.length (Engine.state_atoms st))

(* A provider->peer relationship flip shrinks the export cone: the route
   the middle AS used to relay upward as a customer route becomes a peer
   route and stops at the middle.  The repropagated state matches a fresh
   batch solve of the relabelled graph. *)
let test_delta_rel_flip_shrinks_cone () =
  let top = asn 1 and mid = asn 2 and o = asn 3 in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:top ~customer:mid in
  let g = As_graph.add_p2c g ~provider:mid ~customer:o in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let retain = Asn.Set.of_list [ top; mid ] in
  let atom = Atom.vanilla ~id:1 ~origin:o [ p "10.0.0.0/24" ] in
  let st = Engine.init_state net in
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Announce atom ] in
  let (_ : Engine.state) =
    Engine.repropagate net st [ Delta.Rel_set (mid, o, Relationship.Peer) ]
  in
  begin
    match Engine.state_results st ~retain with
    | [ r ] ->
        check_path "mid keeps the (now peer) route" [ 3 ] (Engine.best_at r mid);
        Alcotest.(check bool) "top is out of the export cone" true
          (Engine.best_at r top = None);
        (* Cross-check against a fresh batch solve of the effective graph. *)
        let net' =
          Engine.prepare ~graph:(Engine.state_graph st) ~import:default_import ()
        in
        let batch = Engine.propagate net' ~retain atom in
        Alcotest.(check bool) "matches batch on the relabelled graph" true
          (tables_equal_modulo_steps r batch)
    | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)
  end

(* Dispute wheels at sizes 3, 5, 7: every odd rim admits no stable state
   under per-AS selection (the alternating direct/peer assignment cannot
   close an odd cycle), while NS-BGP settles each rim AS on the 2-hop
   route through its preferred peer. *)
let test_wheel_sizes () =
  List.iter
    (fun n ->
      let rim = List.init n (fun k -> asn (64501 + k)) in
      let graph, import = Rpi_sim.Gadget.wheel ~rim () in
      let net = Engine.prepare ~graph ~import () in
      let retain = Asn.Set.of_list (As_graph.ases graph) in
      let atom = Atom.vanilla ~id:0 ~origin:(asn 64500) [ p "192.0.2.0/24" ] in
      let vanilla = Engine.propagate net ~retain atom in
      Alcotest.(check bool)
        (Printf.sprintf "%d-wheel oscillates under vanilla" n)
        false vanilla.Engine.converged;
      let ns =
        Engine.propagate net ~retain
          ~decision:Rpi_sim.Decision.neighbor_specific atom
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d-wheel converges under NS-BGP" n)
        true ns.Engine.converged;
      List.iteri
        (fun k holder ->
          let via = 64501 + ((k + 1) mod n) in
          match Engine.best_at ns holder with
          | None -> Alcotest.failf "AS%d has no route" (Asn.to_int holder)
          | Some r ->
              Alcotest.(check (list int))
                (Printf.sprintf "AS%d best path (%d-wheel)" (Asn.to_int holder) n)
                [ via; 64500 ]
                (List.map Asn.to_int r.Engine.path))
        rim)
    [ 3; 5; 7 ];
  (* Construction rejects degenerate inputs. *)
  Alcotest.check_raises "duplicate ASs rejected"
    (Invalid_argument "Gadget.wheel: ASs must be distinct") (fun () ->
      ignore (Rpi_sim.Gadget.wheel ~rim:[ asn 1; asn 1; asn 2 ] ()));
  Alcotest.check_raises "undersized rim rejected"
    (Invalid_argument "Gadget.wheel: rim needs at least 3 ASs") (fun () ->
      ignore (Rpi_sim.Gadget.wheel ~rim:[ asn 1; asn 2 ] ()))

(* propagate_all's scratch reuse and iter_propagated's streaming must be
   observationally invisible: same results as one fresh propagate per
   atom, in declaration order, for batches of every size (including the
   single-atom batch the chunking used to over-split). *)
let test_propagate_all_matches_per_atom () =
  let g, a, _b, c, d, e = fig3_graph () in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let retain = Asn.Set.of_list [ a; c; d; e ] in
  let atoms =
    List.mapi
      (fun i origin -> Atom.vanilla ~id:i ~origin [ p "10.0.0.0/24" ])
      [ a; c; a; d; e; a ]
  in
  let fresh = List.map (Engine.propagate net ~retain) atoms in
  List.iter
    (fun k ->
      let batch = List.filteri (fun i _ -> i < k) atoms in
      let expected = List.filteri (fun i _ -> i < k) fresh in
      List.iter
        (fun jobs ->
          let got = Engine.propagate_all net ~retain ~jobs batch in
          Alcotest.(check bool)
            (Printf.sprintf "batch %d, jobs %d matches per-atom solves" k jobs)
            true (got = expected))
        [ 1; 2; 4 ];
      let streamed = ref [] in
      Engine.iter_propagated net ~retain batch ~f:(fun r -> streamed := r :: !streamed);
      Alcotest.(check bool)
        (Printf.sprintf "iter_propagated streams batch %d in order" k)
        true
        (List.rev !streamed = expected))
    [ 0; 1; 2; 6 ]

let test_vantage_rib () =
  let g, a, b, c, d, e = fig3_graph () in
  ignore c;
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom1 = Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24"; p "10.0.1.0/24" ] in
  let atom2 = Atom.vanilla ~id:2 ~origin:b [ p "11.0.0.0/24" ] in
  let results =
    Engine.propagate_all net ~retain:(Asn.Set.of_list [ d; e ]) [ atom1; atom2 ]
  in
  let policy = { (Policy.default d) with Policy.scheme = Some Policy.default_scheme } in
  let rib = Vantage.rib_at ~policy ~vantage:d results in
  Alcotest.(check int) "three prefixes at D" 3 (Rib.prefix_count rib);
  (* D's best for 10.0.0.0/24 must be the customer route via B, tagged with
     D's customer community. *)
  begin
    match Rib.best rib (p "10.0.0.0/24") with
    | None -> Alcotest.fail "no best route"
    | Some route ->
        Alcotest.(check (option int))
          "peer_as is B"
          (Some (Asn.to_int b))
          (Option.map Asn.to_int route.Route.peer_as);
        let tags = Rpi_bgp.Community.Set.elements route.Route.communities in
        Alcotest.(check (list string))
          "customer tag"
          [ Printf.sprintf "%d:4000" (Asn.to_int d) ]
          (List.map Rpi_bgp.Community.to_string tags)
  end

let test_collector_rib () =
  let g, a, _b, _c, d, e = fig3_graph () in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom = Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24" ] in
  let results = Engine.propagate_all net ~retain:(Asn.Set.of_list [ d; e ]) [ atom ] in
  let rib = Vantage.collector_rib ~peers:[ d; e ] results in
  let cands = Rib.candidates rib (p "10.0.0.0/24") in
  Alcotest.(check int) "two feeds" 2 (List.length cands);
  List.iter
    (fun (r : Route.t) ->
      Alcotest.(check (option int)) "no local-pref at collector" None r.Route.local_pref)
    cands

let test_timeline_conditional () =
  (* A multihomed origin with conditional advertisement always down on the
     primary announces via the backup — a single-provider scope that is
     never the whole provider set. *)
  let g, a, b, c, _d, _e = fig3_graph () in
  let rng = Rpi_prng.Prng.create ~seed:21 in
  let atoms = [ Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24" ] ] in
  let churn =
    {
      Timeline.p_policy_change = 0.0;
      p_outage = 0.0;
      p_late_start = 0.0;
      p_early_stop = 0.0;
      p_conditional = 1.0;
      p_primary_down = 1.0;
    }
  in
  let epochs = Timeline.evolve rng ~graph:g ~churn ~epochs:3 atoms in
  List.iter
    (fun ep ->
      match ep.Timeline.atoms with
      | [ atom ] -> begin
          match atom.Atom.provider_scope with
          | Atom.Only_providers set ->
              Alcotest.(check int) "single backup provider" 1 (Asn.Set.cardinal set);
              Alcotest.(check bool) "backup is a real provider" true
                (Asn.Set.subset set (Asn.Set.of_list [ b; c ]))
          | Atom.All_providers -> Alcotest.fail "conditional scope expected"
        end
      | other -> Alcotest.failf "expected 1 atom, got %d" (List.length other))
    epochs

let test_timeline () =
  let g, a, _b, _c, _d, _e = fig3_graph () in
  let rng = Rpi_prng.Prng.create ~seed:7 in
  let atoms = [ Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24" ] ] in
  let epochs =
    Timeline.evolve rng ~graph:g
      ~churn:
        {
          Timeline.p_policy_change = 1.0;
          p_outage = 0.0;
          p_late_start = 0.0;
          p_early_stop = 0.0;
          p_conditional = 0.0;
          p_primary_down = 0.0;
        }
      ~epochs:5 atoms
  in
  Alcotest.(check int) "five epochs" 5 (List.length epochs);
  List.iter
    (fun ep -> Alcotest.(check int) "atom present" 1 (List.length ep.Timeline.atoms))
    epochs

let test_epoch_differ () =
  let a1 = Atom.vanilla ~id:1 ~origin:(asn 10) [ p "10.0.0.0/24"; p "10.0.1.0/24" ] in
  let a2 = Atom.vanilla ~id:2 ~origin:(asn 20) [ p "20.0.0.0/24"; p "20.0.1.0/24" ] in
  let a2' =
    Atom.make ~id:2 ~origin:(asn 20)
      ~provider_scope:(Atom.Only_providers (Asn.Set.singleton (asn 30)))
      [ p "20.0.0.0/24" ]
  in
  let a3 = Atom.vanilla ~id:3 ~origin:(asn 30) [ p "30.0.0.0/24" ] in
  let ea = { Timeline.index = 0; atoms = [ a1; a2 ] } in
  let eb = { Timeline.index = 1; atoms = [ a3; a2' ] } in
  let d = Timeline.delta_between ea eb in
  Alcotest.(check (list int))
    "added ids" [ 3 ]
    (List.map (fun (x : Atom.t) -> x.Atom.id) d.Timeline.added);
  Alcotest.(check (list int))
    "removed ids" [ 1 ]
    (List.map (fun (x : Atom.t) -> x.Atom.id) d.Timeline.removed);
  Alcotest.(check (list int))
    "changed ids" [ 2 ]
    (List.map (fun ((_, x) : Atom.t * Atom.t) -> x.Atom.id) d.Timeline.changed);
  (* Withdraws first (removed atom 1), then announces: the added atom 3,
     then the re-specified atom 2, whose announce carries its new spec. *)
  let ds = Timeline.deltas_between ea eb in
  Alcotest.(check (list string))
    "delta stream"
    [ "withdraw 1"; "announce 3"; "announce 2" ]
    (List.map Delta.render ds);
  List.iter
    (function
      | Delta.Announce atom when atom.Atom.id = 2 ->
          Alcotest.(check bool) "re-scoped spec" true (Atom.equal atom a2')
      | _ -> ())
    ds;
  Alcotest.(check int) "identical epochs diff to nothing" 0
    (List.length (Timeline.deltas_between eb eb));
  (* Applied to a state announcing epoch [a], the deltas leave exactly
     epoch [b]'s atoms announced, and report all three as changed. *)
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:(asn 30) ~customer:(asn 10) in
  let g = As_graph.add_p2c g ~provider:(asn 30) ~customer:(asn 20) in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let st = Engine.init_state net in
  let (_ : Engine.state) =
    Engine.repropagate net st (Timeline.deltas_between { ea with Timeline.atoms = [] } ea)
  in
  let (_ : Engine.state) = Engine.repropagate net st ds in
  Alcotest.(check bool) "epoch b announced" true
    (List.equal Atom.equal (Engine.state_atoms st) [ a2'; a3 ]);
  Alcotest.(check (list int)) "changed atoms" [ 1; 2; 3 ] (Engine.changed_atoms st)

(* --- Policy --- *)

let test_policy_lp_resolution () =
  let nb = asn 7 in
  let import =
    {
      Policy.default_import with
      Policy.lp_neighbor = Asn.Map.singleton nb 95;
      lp_atom = [ (nb, 3, 77); (nb, 3, 66) ];
    }
  in
  let r = Policy.compile import in
  Alcotest.(check int) "atom entry wins (first of duplicates)" 77
    (Policy.resolve r ~neighbor:nb ~rel:Relationship.Customer ~atom:3);
  Alcotest.(check int) "neighbour override next" 95
    (Policy.resolve r ~neighbor:nb ~rel:Relationship.Customer ~atom:9);
  Alcotest.(check int) "class fallback" 110
    (Policy.resolve r ~neighbor:(asn 8) ~rel:Relationship.Customer ~atom:9);
  Alcotest.(check int) "static skips atom entries" 95
    (Policy.resolve_static r ~neighbor:nb ~rel:Relationship.Customer);
  Alcotest.(check bool) "compiled policy is dynamic" true (Policy.is_dynamic r);
  let ext =
    Policy.compile ~overrides:[ (nb, 3, 88); (nb, 3, 99) ] Policy.default_import
  in
  Alcotest.(check int) "external entry wins (last of duplicates)" 99
    (Policy.resolve ext ~neighbor:nb ~rel:Relationship.Customer ~atom:3);
  let shadowed = Policy.compile ~overrides:[ (nb, 3, 88) ] import in
  Alcotest.(check int) "external shadows the policy's own atom entry" 88
    (Policy.resolve shadowed ~neighbor:nb ~rel:Relationship.Customer ~atom:3);
  Alcotest.(check bool) "static-only policy is not dynamic" false
    (Policy.is_dynamic (Policy.compile Policy.default_import));
  Alcotest.(check bool) "default order typical" true
    (Policy.is_typical_classes Policy.default_import);
  Alcotest.(check bool) "flat order atypical" false
    (Policy.is_typical_classes { Policy.default_import with Policy.lp_customer = 100 })

(* State-owned policy copies: [copy_resolved] isolates the pair table, so
   an in-place [override_resolved] never leaks into the compiled original;
   conflicting writes to the same pair replace (external-override
   semantics), and a dynamic holder still falls back through the
   neighbour/class chain for atoms with no entry. *)
let test_policy_copy_override () =
  let nb = asn 7 in
  let import = { Policy.default_import with Policy.lp_atom = [ (nb, 3, 77) ] } in
  let r = Policy.compile import in
  let c = Policy.copy_resolved r in
  Policy.override_resolved c ~neighbor:nb ~atom:3 ~lp:91;
  Alcotest.(check int) "copy takes the override" 91
    (Policy.resolve c ~neighbor:nb ~rel:Relationship.Customer ~atom:3);
  Alcotest.(check int) "original untouched" 77
    (Policy.resolve r ~neighbor:nb ~rel:Relationship.Customer ~atom:3);
  (* Conflicting overrides on one pair: the last write wins. *)
  Policy.override_resolved c ~neighbor:nb ~atom:3 ~lp:84;
  Alcotest.(check int) "conflicting override replaces" 84
    (Policy.resolve c ~neighbor:nb ~rel:Relationship.Customer ~atom:3);
  Policy.override_resolved c ~neighbor:nb ~atom:9 ~lp:105;
  Alcotest.(check int) "fresh pair added" 105
    (Policy.resolve c ~neighbor:nb ~rel:Relationship.Customer ~atom:9);
  Alcotest.(check int) "static resolution ignores pair overrides" 110
    (Policy.resolve_static c ~neighbor:nb ~rel:Relationship.Customer);
  (* Dynamic-holder fallback: other neighbours and atoms resolve through
     the neighbour override then the class preference. *)
  Alcotest.(check int) "dynamic holder falls back per class" 90
    (Policy.resolve c ~neighbor:(asn 8) ~rel:Relationship.Provider ~atom:3);
  Alcotest.(check int) "unlisted atom falls back on the same neighbour" 110
    (Policy.resolve c ~neighbor:nb ~rel:Relationship.Customer ~atom:12)

let test_policy_tagging () =
  let self = asn 1 in
  let scheme = Policy.multi_scheme in
  (* Deterministic per neighbour; sibling untagged. *)
  begin
    match Policy.tag scheme ~self ~neighbor:(asn 20) Relationship.Peer with
    | Some c ->
        Alcotest.(check int) "tagging AS" 1 (Asn.to_int (Rpi_bgp.Community.asn c));
        Alcotest.(check bool) "peer band" true
          (Policy.code_class scheme (Rpi_bgp.Community.value c) = Some Relationship.Peer)
    | None -> Alcotest.fail "expected a tag"
  end;
  Alcotest.(check bool) "sibling untagged" true
    (Policy.tag scheme ~self ~neighbor:(asn 20) Relationship.Sibling = None);
  Alcotest.(check bool) "customer band" true
    (Policy.code_class scheme 4010 = Some Relationship.Customer);
  Alcotest.(check bool) "provider band" true
    (Policy.code_class scheme 2020 = Some Relationship.Provider);
  Alcotest.(check bool) "below all bands" true (Policy.code_class scheme 10 = None)

(* --- Vantage router views --- *)

let test_router_views_invariants () =
  let g, a, _b, _c, d, e = fig3_graph () in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let atom = Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24" ] in
  let results = Engine.propagate_all net ~retain:(Asn.Set.of_list [ d; e ]) [ atom ] in
  let policy = Policy.default d in
  let views = Vantage.router_views ~policy ~vantage:d ~routers:8 results in
  Alcotest.(check int) "eight views" 8 (List.length views);
  (* Every router still resolves the prefix: the AS-level best reaches all
     routers over iBGP even when the session subset excludes it. *)
  List.iter
    (fun rib ->
      Alcotest.(check bool) "prefix resolvable" true
        (Rib.best rib (p "10.0.0.0/24") <> None))
    views

(* --- Engine invariants on random topologies --- *)

let random_world seed =
  let rng = Rpi_prng.Prng.create ~seed in
  let config =
    {
      Rpi_topo.Gen.default_config with
      Rpi_topo.Gen.n_tier1 = 4;
      n_tier2 = 8;
      n_tier3 = 20;
      n_stub = 40;
    }
  in
  let topo = Rpi_topo.Gen.generate ~config rng in
  (rng, topo)

(* --- The packed candidate word --- *)

(* Local preference takes 32 bits of a slot's packed word.  Both ends of
   that range must survive packing, comparison and unpacking: policies
   whose class values, neighbour entries, atom entries and prepare-time
   overrides sit at 0 and 2^32 - 1 give the reference solver's exact
   results.  The other bound of the word — intern ids below 2^26 — is
   not tested: a table that full needs 2 GB for its cell arrays alone. *)
let lp_max = (1 lsl 32) - 1

let test_lp_bounds_match_reference () =
  List.iter
    (fun seed ->
      let rng, topo = random_world seed in
      let g = topo.Rpi_topo.Gen.graph in
      let ases = Array.of_list (As_graph.ases g) in
      let pick () = Rpi_prng.Prng.choice rng ases in
      (* Typical classes at the extremes: customers and siblings at
         2^32 - 1, where candidates tie and the path-length tie-break
         runs, providers at 0.  Every third AS also sets one neighbour
         and one atom to an extreme, and so do the overrides. *)
      let extreme k = if k mod 2 = 0 then 0 else lp_max in
      let import a =
        let base =
          { Policy.default_import with
            Policy.lp_customer = lp_max; lp_sibling = lp_max; lp_peer = 1; lp_provider = 0 }
        in
        let k = Asn.to_int a in
        if k mod 3 <> 0 then base
        else
          match As_graph.neighbors g a with
          | [] -> base
          | (nb, _) :: _ ->
              { base with
                Policy.lp_neighbor = Asn.Map.singleton nb (extreme k);
                lp_atom = [ (nb, k mod 4, extreme (k + 1)) ] }
      in
      let lp_overrides =
        List.filter_map
          (fun k ->
            let holder = pick () in
            match As_graph.neighbors g holder with
            | [] -> None
            | (nb, _) :: _ -> Some (k mod 4, holder, nb, extreme k))
          (List.init 6 Fun.id)
      in
      let net = Engine.prepare ~graph:g ~import ~lp_overrides () in
      let retain = Asn.Set.of_list (Array.to_list ases) in
      let relayed_lps = ref [] in
      for id = 0 to 3 do
        let atom = Atom.vanilla ~id ~origin:(pick ()) [ p "10.0.0.0/24" ] in
        let fast = Engine.propagate net ~retain atom in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d atom %d matches the reference" seed id)
          true
          (fast = Engine.propagate_reference net ~retain atom);
        Asn.Map.iter
          (fun _ (t : Engine.table) ->
            List.iter
              (fun (r : Engine.route) ->
                if Option.is_some r.Engine.learned_from then
                  relayed_lps := r.Engine.lp :: !relayed_lps)
              t.Engine.candidates)
          fast.Engine.tables
      done;
      Alcotest.(check bool) (Printf.sprintf "seed %d relays lp 2^32 - 1" seed) true
        (List.mem lp_max !relayed_lps);
      Alcotest.(check bool) (Printf.sprintf "seed %d relays lp 0" seed) true
        (List.mem 0 !relayed_lps))
    [ 3; 17; 29 ]

(* An [Lp_set] to the top of the range and back re-solves to what a fresh
   batch solve with the same override gives. *)
let test_lp_set_max_and_back () =
  let g, a, b, c, d, e = fig3_graph () in
  let net = Engine.prepare ~graph:g ~import:default_import () in
  let retain = Asn.Set.of_list [ a; b; c; d; e ] in
  let atom = Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24" ] in
  let st = Engine.init_state net in
  let (_ : Engine.state) = Engine.repropagate net st [ Delta.Announce atom ] in
  let check_against_batch msg lp =
    let (_ : Engine.state) =
      Engine.repropagate net st
        [ Delta.Lp_set { atom_id = 1; holder = d; neighbor = e; lp } ]
    in
    let fresh =
      Engine.prepare ~graph:g ~import:default_import ~lp_overrides:[ (1, d, e, lp) ] ()
    in
    match Engine.state_results st ~retain with
    | [ r ] ->
        Alcotest.(check bool) msg true
          (tables_equal_modulo_steps r (Engine.propagate fresh ~retain atom));
        r
    | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)
  in
  (* D prefers its customer B (110) to its peer E (100) until E's route
     is priced at 2^32 - 1. *)
  let r = check_against_batch "lp 2^32 - 1 matches batch" lp_max in
  (match Engine.best_at r d with
  | Some route -> Alcotest.(check int) "D's best carries 2^32 - 1" lp_max route.Engine.lp
  | None -> Alcotest.fail "no route at D");
  let r = check_against_batch "back to the peer class value matches batch" 100 in
  check_path "D is back on its customer route" [ Asn.to_int b; Asn.to_int a ]
    (Engine.best_at r d)

let test_lp_outside_32_bits_rejected () =
  let g, a, _b, _c, d, e = fig3_graph () in
  let raises fn where lp f =
    Alcotest.check_raises
      (Printf.sprintf "lp %d at %s" lp where)
      (Invalid_argument
         (Printf.sprintf "Policy.%s: local preference %d outside [0, 2^32)" fn lp))
      f
  in
  List.iter
    (fun lp ->
      let prepare import = ignore (Engine.prepare ~graph:g ~import:(fun _ -> import) ()) in
      raises "compile" "class value" lp (fun () ->
          prepare { Policy.default_import with Policy.lp_peer = lp });
      raises "compile" "lp_neighbor" lp (fun () ->
          prepare { Policy.default_import with Policy.lp_neighbor = Asn.Map.singleton e lp });
      raises "compile" "lp_atom" lp (fun () ->
          prepare { Policy.default_import with Policy.lp_atom = [ (e, 1, lp) ] });
      raises "compile" "lp_overrides" lp (fun () ->
          ignore
            (Engine.prepare ~graph:g ~import:default_import
               ~lp_overrides:[ (1, d, e, lp) ] ()));
      let net = Engine.prepare ~graph:g ~import:default_import () in
      let st = Engine.init_state net in
      let (_ : Engine.state) =
        Engine.repropagate net st [ Delta.Announce (Atom.vanilla ~id:1 ~origin:a [ p "10.0.0.0/24" ]) ]
      in
      raises "override_resolved" "Lp_set" lp (fun () ->
          ignore
            (Engine.repropagate net st
               [ Delta.Lp_set { atom_id = 1; holder = d; neighbor = e; lp } ])))
    [ -1; 1 lsl 32 ]

(* The incremental state's memory, in words per announced atom: one
   packed row over the 2E slots, two rows over the n ASes and an intern
   table grown from the default size.  The bound, 2E + 8n, leaves the
   table six words per AS: a second row over the slots (+2E) or a table
   pre-sized to max(512, n) cells breaks it. *)
let test_state_words_per_atom () =
  let s =
    Rpi_dataset.Scenario.build
      ~config:{ Rpi_dataset.Scenario.small_config with Rpi_dataset.Scenario.seed = 1 }
      ()
  in
  let net = s.Rpi_dataset.Scenario.network in
  let g = s.Rpi_dataset.Scenario.graph in
  let n = As_graph.as_count g and e = As_graph.edge_count g in
  let atoms = s.Rpi_dataset.Scenario.atoms in
  let st = Engine.init_state net in
  let empty = Obj.reachable_words (Obj.repr st) in
  let (_ : Engine.state) =
    Engine.repropagate net st (List.map (fun a -> Delta.Announce a) atoms)
  in
  let per_atom = (Obj.reachable_words (Obj.repr st) - empty) / List.length atoms in
  Printf.printf "state: %d ASes, %d edges, %d atoms, %d words per atom\n" n e
    (List.length atoms) per_atom;
  let bound = (2 * e) + (8 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words per atom within 2E + 8n = %d" per_atom bound)
    true (per_atom <= bound)

let prop_engine_converges =
  QCheck2.Test.make ~name:"propagation always converges" ~count:15
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng, topo = random_world seed in
      let g = topo.Rpi_topo.Gen.graph in
      let net = Engine.prepare ~graph:g ~import:(fun _ -> Policy.default_import) () in
      let ases = Array.of_list (As_graph.ases g) in
      let retain = Asn.Set.of_list topo.Rpi_topo.Gen.tier1 in
      List.for_all
        (fun i ->
          let origin = Rpi_prng.Prng.choice rng ases in
          let atom = Atom.vanilla ~id:i ~origin [ p "10.0.0.0/24" ] in
          (Engine.propagate net ~retain atom).Engine.converged)
        (List.init 10 Fun.id))

let prop_engine_paths_valley_free =
  QCheck2.Test.make ~name:"stable routes are valley-free" ~count:10
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng, topo = random_world seed in
      let g = topo.Rpi_topo.Gen.graph in
      let net = Engine.prepare ~graph:g ~import:(fun _ -> Policy.default_import) () in
      let ases = Array.of_list (As_graph.ases g) in
      let retain = Asn.Set.of_list (Array.to_list ases) in
      List.for_all
        (fun i ->
          let origin = Rpi_prng.Prng.choice rng ases in
          let atom = Atom.vanilla ~id:i ~origin [ p "10.0.0.0/24" ] in
          let result = Engine.propagate net ~retain atom in
          Asn.Map.for_all
            (fun holder table ->
              List.for_all
                (fun (r : Engine.route) ->
                  match r.Engine.path with
                  | [] -> true
                  | _ :: _ -> Rpi_topo.Paths.is_valley_free g (holder :: r.Engine.path))
                table.Engine.candidates)
            result.Engine.tables)
        (List.init 5 Fun.id))

let prop_selective_monotone =
  (* Restricting the provider scope never creates routes: every AS holding
     a route under Only_providers also holds one under All_providers. *)
  QCheck2.Test.make ~name:"selective announcement only removes routes" ~count:10
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng, topo = random_world seed in
      let g = topo.Rpi_topo.Gen.graph in
      let net = Engine.prepare ~graph:g ~import:(fun _ -> Policy.default_import) () in
      let multihomed =
        List.filter (fun a -> List.length (As_graph.providers g a) > 1) (As_graph.ases g)
      in
      match multihomed with
      | [] -> true
      | _ :: _ ->
          let origin = Rpi_prng.Prng.choice_list rng multihomed in
          let providers = As_graph.providers g origin in
          let subset = Asn.Set.singleton (List.hd providers) in
          let retain = Asn.Set.of_list (As_graph.ases g) in
          let open_atom = Atom.vanilla ~id:0 ~origin [ p "10.0.0.0/24" ] in
          let closed_atom =
            Atom.make ~id:1 ~origin ~provider_scope:(Atom.Only_providers subset)
              [ p "10.0.0.0/24" ]
          in
          let open_result = Engine.propagate net ~retain open_atom in
          let closed_result = Engine.propagate net ~retain closed_atom in
          Asn.Map.for_all
            (fun holder closed_table ->
              match closed_table.Engine.best with
              | None -> true
              | Some _ -> begin
                  match Asn.Map.find_opt holder open_result.Engine.tables with
                  | Some open_table -> open_table.Engine.best <> None
                  | None -> false
                end)
            closed_result.Engine.tables)

let prop_no_export_up_never_above_tagged =
  (* With every provider tagged no-export-up, the route stays within one
     hop of the origin's horizon: the direct providers and peers, plus
     everything strictly below the origin, its providers, or its peers —
     no second climb.  (Siblings are excluded from the world: a sibling
     legitimately relays the route as its own, which widens the bound.) *)
  QCheck2.Test.make ~name:"no-export-up bounds propagation" ~count:10
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rpi_prng.Prng.create ~seed in
      let config =
        {
          Rpi_topo.Gen.default_config with
          Rpi_topo.Gen.n_tier1 = 4;
          n_tier2 = 8;
          n_tier3 = 20;
          n_stub = 40;
          sibling_pairs = 0;
        }
      in
      let topo = Rpi_topo.Gen.generate ~config rng in
      let g = topo.Rpi_topo.Gen.graph in
      let net = Engine.prepare ~graph:g ~import:(fun _ -> Policy.default_import) () in
      let with_providers =
        List.filter (fun a -> As_graph.providers g a <> []) (As_graph.ases g)
      in
      match with_providers with
      | [] -> true
      | _ :: _ ->
          let origin = Rpi_prng.Prng.choice_list rng with_providers in
          let providers = Asn.Set.of_list (As_graph.providers g origin) in
          let horizon =
            Asn.Set.union providers (Asn.Set.of_list (As_graph.peers g origin))
          in
          let retain = Asn.Set.of_list (As_graph.ases g) in
          let atom =
            Atom.make ~id:0 ~origin ~no_export_up:providers [ p "10.0.0.0/24" ]
          in
          let result = Engine.propagate net ~retain atom in
          Asn.Map.for_all
            (fun holder table ->
              match table.Engine.best with
              | None -> true
              | Some _ ->
                  Asn.equal holder origin
                  || Asn.Set.mem holder horizon
                  || Rpi_topo.Paths.is_customer g ~provider:origin holder
                  || Asn.Set.exists
                       (fun d -> Rpi_topo.Paths.is_customer g ~provider:d holder)
                       horizon)
            result.Engine.tables)

let () =
  Alcotest.run "rpi_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "fig3 selective announcement" `Quick test_fig3_selective;
          Alcotest.test_case "fig3 announce to all" `Quick test_fig3_announce_all;
          Alcotest.test_case "fig5 curving route" `Quick test_fig5;
          Alcotest.test_case "no-export-up community" `Quick test_no_export_up;
          Alcotest.test_case "aggregation suppression" `Quick test_suppressed_at;
          Alcotest.test_case "peer withholding" `Quick test_withhold_peer;
          Alcotest.test_case "no transit across peers" `Quick test_no_peer_transit;
          Alcotest.test_case "local-pref beats path length" `Quick test_lp_beats_length;
          Alcotest.test_case "bad gadget: vanilla vs NS-BGP" `Quick test_bad_gadget;
          Alcotest.test_case "dispute wheels at sizes 3/5/7" `Quick test_wheel_sizes;
          Alcotest.test_case "propagate_all matches per-atom" `Quick
            test_propagate_all_matches_per_atom;
          Alcotest.test_case "lp 0 and 2^32-1 match the reference" `Quick
            test_lp_bounds_match_reference;
          Alcotest.test_case "lp outside 32 bits rejected" `Quick
            test_lp_outside_32_bits_rejected;
        ] );
      ( "repropagate",
        [
          Alcotest.test_case "link flap re-converges" `Quick test_delta_link_flap;
          Alcotest.test_case "invalidation clears slots" `Quick test_delta_withdraw_clears;
          Alcotest.test_case "rel flip shrinks export cone" `Quick
            test_delta_rel_flip_shrinks_cone;
          Alcotest.test_case "lp_set to 2^32-1 and back" `Quick test_lp_set_max_and_back;
          Alcotest.test_case "state words per atom" `Quick test_state_words_per_atom;
        ] );
      ( "vantage",
        [
          Alcotest.test_case "looking-glass rib" `Quick test_vantage_rib;
          Alcotest.test_case "collector rib" `Quick test_collector_rib;
        ] );
      ( "policy",
        [
          Alcotest.test_case "lp resolution" `Quick test_policy_lp_resolution;
          Alcotest.test_case "copies and in-place overrides" `Quick
            test_policy_copy_override;
          Alcotest.test_case "tagging" `Quick test_policy_tagging;
        ] );
      ( "router_views",
        [ Alcotest.test_case "invariants" `Quick test_router_views_invariants ] );
      ( "timeline",
        [
          Alcotest.test_case "evolve" `Quick test_timeline;
          Alcotest.test_case "conditional advertisement" `Quick test_timeline_conditional;
          Alcotest.test_case "epoch differ" `Quick test_epoch_differ;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_converges;
            prop_engine_paths_valley_free;
            prop_selective_monotone;
            prop_no_export_up_never_above_tagged;
          ] );
    ]
