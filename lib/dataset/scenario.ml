module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Gen = Rpi_topo.Gen
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4
module Atom = Rpi_sim.Atom
module Policy = Rpi_sim.Policy
module Engine = Rpi_sim.Engine
module Decision = Rpi_sim.Decision
module Vantage = Rpi_sim.Vantage
module Prng = Rpi_prng.Prng
module Int_tbl = Hashtbl.Make (Int)

let log_src = Logs.Src.create "rpi.dataset" ~doc:"scenario builder"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  seed : int;
  topology : Gen.config;
  prefixes_per_tier : int * int * int * int;
  p_selective : float;
  p_no_export_up : float;
  p_split : float;
  p_aggregate : float;
  p_peer_withhold : float;
  p_prepend : float;
  p_transit_selective : float;
  p_atypical_neighbor : float;
  p_atypical_prefix : float;
  p_prefix_override : float;
  n_collector_peers : int;
  n_lg : int;
  atoms_per_as : int;
}

let default_config =
  {
    seed = 42;
    topology = Gen.default_config;
    prefixes_per_tier = (8, 6, 4, 3);
    p_selective = 0.85;
    p_no_export_up = 0.10;
    p_split = 0.02;
    p_aggregate = 0.03;
    p_peer_withhold = 0.05;
    p_prepend = 0.08;
    p_transit_selective = 0.30;
    p_atypical_neighbor = 0.05;
    p_atypical_prefix = 0.008;
    p_prefix_override = 0.02;
    n_collector_peers = 40;
    n_lg = 15;
    atoms_per_as = 3;
  }

let small_config =
  {
    default_config with
    topology =
      {
        Gen.default_config with
        Gen.n_tier1 = 6;
        n_tier2 = 24;
        n_tier3 = 80;
        n_stub = 200;
      };
    n_collector_peers = 16;
    n_lg = 8;
  }

type t = {
  config : config;
  topo : Gen.t;
  graph : As_graph.t;
  policies : Policy.t Asn.Map.t;
  atoms : Atom.t list;
  lp_overrides : (Asn.t * Asn.t * int) list Int_tbl.t;
  transit_scopes : Asn.Set.t Asn.Map.t;
  network : Engine.network;
  decision : Decision.t;
  retain : Asn.Set.t;
  results : Engine.result list;
  collector_peers : Asn.t list;
  collector : Rib.t;
  lg_ases : Asn.t list;
  lg_tables : (Asn.t * Rib.t) list;
}

(* --- prefix allocation ---
   AS number i (by position in the global AS list) owns the /20 block at
   offset i * 2^12.  Its own announcements use the first 8 /24 slots; slots
   8..15 are reserved for space the AS delegates to customers (the
   aggregation case). *)

let block_of_index i = Prefix.make (Ipv4.of_int32_exn (i * 4096)) 20

let slot_prefix ~block ~slot =
  let base = Ipv4.to_int (Prefix.network block) in
  Prefix.make (Ipv4.of_int32_exn (base + (slot * 256))) 24

(* --- policy assignment --- *)

let draw_import rng graph asn ~atypical =
  let lp_customer = Prng.choice rng [| 110; 120 |] in
  let lp_provider = Prng.choice rng [| 80; 90 |] in
  let base =
    {
      Policy.default_import with
      Policy.lp_customer;
      lp_sibling = lp_customer - 5;
      lp_peer = 100;
      lp_provider;
    }
  in
  if not atypical then base
  else begin
    (* One neighbour override that violates the typical order: a peer or
       provider granted more preference than customers. *)
    let candidates = As_graph.peers graph asn @ As_graph.providers graph asn in
    match candidates with
    | [] -> base
    | _ :: _ ->
        let nb = Prng.choice_list rng candidates in
        {
          base with
          Policy.lp_neighbor = Asn.Map.singleton nb (lp_customer + 10);
        }
  end

(* --- atom construction --- *)

let proper_subset rng members =
  match members with
  | [] | [ _ ] -> None
  | _ :: _ :: _ ->
      let n = List.length members in
      (* Bias towards announcing through a single upstream: the common
         traffic-engineering pattern ("force inbound through the cheap
         link"), and what makes SA prefixes visible at many providers. *)
      let size = if Prng.chance rng 0.6 then 1 else Prng.int_in rng 1 (n - 1) in
      Some (Asn.Set.of_list (Prng.sample rng size members))

(* The per-atom override triples, flattened to the quadruples
   [Engine.prepare] compiles into each AS's resolved policy.  Per-atom
   list order is preserved: [Policy.compile]'s duplicate-key precedence
   (last external entry wins) must see the entries in the order they
   were recorded. *)
let quads_of_overrides lp_overrides =
  Int_tbl.fold
    (fun atom_id triples acc ->
      List.map (fun (holder, nb, lp) -> (atom_id, holder, nb, lp)) triples @ acc)
    lp_overrides []

let build ?(config = default_config) ?(decision = Decision.vanilla) () =
  let root = Prng.create ~seed:config.seed in
  let topo_rng = Prng.split root in
  let policy_rng = Prng.split root in
  let atom_rng = Prng.split root in
  let override_rng = Prng.split root in
  let topo = Gen.generate ~config:config.topology topo_rng in
  let graph = topo.Gen.graph in
  let ases = As_graph.ases graph in
  let index_of =
    let tbl = Asn.Table.create (List.length ases) in
    List.iteri (fun i a -> Asn.Table.add tbl a i) ases;
    fun a -> Asn.Table.find tbl a
  in
  let tiers = Gen.tiers_ground_truth topo in
  let max_prefixes a =
    let t1, t2, t3, ts = config.prefixes_per_tier in
    match Asn.Map.find_opt a tiers with
    | Some 1 -> t1
    | Some 2 -> t2
    | Some 3 -> t3
    | Some _ | None -> ts
  in
  (* Looking-Glass cast: the famous ASs present in the graph, Tier-1s
     first. *)
  let famous = Gen.famous_tier1 @ Gen.famous_tier2 in
  let lg_ases =
    List.filter (fun a -> As_graph.mem_as graph a) famous
    |> List.filteri (fun i _ -> i < config.n_lg)
  in
  (* Policies: everyone gets an import policy; LG ASs get community
     schemes.  Neighbour-wide atypical overrides only go to non-vantage
     ASs — at a vantage, one such override would colour a large share of
     the table, where the paper observes atypical preference on a tiny
     fraction of prefixes (handled below at prefix granularity). *)
  let policies =
    List.fold_left
      (fun acc asn ->
        let is_lg = List.exists (Asn.equal asn) lg_ases in
        let atypical = (not is_lg) && Prng.chance policy_rng config.p_atypical_neighbor in
        let import = draw_import policy_rng graph asn ~atypical in
        let scheme =
          if List.exists (Asn.equal asn) lg_ases then
            Some (if Prng.bool policy_rng then Policy.default_scheme else Policy.multi_scheme)
          else None
        in
        Asn.Map.add asn { Policy.asn; import; scheme } acc)
      Asn.Map.empty ases
  in
  (* Atoms. *)
  let next_atom = ref 0 in
  let fresh_atom_id () =
    let id = !next_atom in
    incr next_atom;
    id
  in
  let aggregator_blocks : Prefix.t list Asn.Table.t = Asn.Table.create 64 in
  let delegation_slots : int Asn.Table.t = Asn.Table.create 64 in
  let atoms =
    List.concat_map
      (fun origin ->
        let block = block_of_index (index_of origin) in
        let n_prefixes = Prng.int_in atom_rng 1 (max_prefixes origin) in
        let prefixes = List.init n_prefixes (fun slot -> slot_prefix ~block ~slot) in
        let providers = As_graph.providers graph origin in
        let peers = As_graph.peers graph origin in
        let multihomed = List.length providers > 1 in
        let selective = multihomed && Prng.chance atom_rng config.p_selective in
        (* Partition prefixes into up to [atoms_per_as] groups. *)
        let n_atoms = Prng.int_in atom_rng 1 (min config.atoms_per_as n_prefixes) in
        let groups = Array.make n_atoms [] in
        List.iteri (fun i p -> groups.(i mod n_atoms) <- p :: groups.(i mod n_atoms)) prefixes;
        (* Per-atom, per-peer independent withholding, so a peer may export
           "most but not all" of its prefixes over one session (the pattern
           behind Table 10's 86%..100%). *)
        let draw_withhold () =
          List.fold_left
            (fun acc peer ->
              if Prng.chance atom_rng config.p_peer_withhold then Asn.Set.add peer acc
              else acc)
            Asn.Set.empty peers
        in
        let base_atoms =
          Array.to_list groups
          |> List.filter (fun g -> g <> [])
          |> List.map (fun group ->
                 if selective && Prng.chance atom_rng 0.9 then begin
                   if Prng.chance atom_rng config.p_no_export_up then begin
                     (* Community mechanism: announce to every direct
                        provider but tag a subset "do not export up"; the
                        route escapes only through the untagged ones, so a
                        provider above a tagged hop sees an SA prefix even
                        though the hop itself was served. *)
                     let tagged =
                       match proper_subset atom_rng providers with
                       | Some s -> s
                       | None -> Asn.Set.empty
                     in
                     Atom.make ~id:(fresh_atom_id ()) ~origin ~no_export_up:tagged
                       ~withhold_peers:(draw_withhold ()) (List.rev group)
                   end
                   else begin
                     match proper_subset atom_rng providers with
                     | Some subset ->
                         Atom.make ~id:(fresh_atom_id ()) ~origin
                           ~provider_scope:(Atom.Only_providers subset) ~withhold_peers:(draw_withhold ())
                           (List.rev group)
                     | None ->
                         Atom.make ~id:(fresh_atom_id ()) ~origin ~withhold_peers:(draw_withhold ())
                           (List.rev group)
                   end
                 end
                 else if multihomed && Prng.chance atom_rng config.p_prepend then begin
                   (* The softer inbound-TE tool: pad the path towards the
                      de-preferred providers instead of hiding the prefix
                      from them. *)
                   let padded =
                     match proper_subset atom_rng providers with
                     | Some subset ->
                         List.map
                           (fun nb -> (nb, Prng.int_in atom_rng 1 3))
                           (Asn.Set.elements subset)
                     | None -> []
                   in
                   Atom.make ~id:(fresh_atom_id ()) ~origin ~prepend_to:padded
                     ~withhold_peers:(draw_withhold ()) (List.rev group)
                 end
                 else Atom.make ~id:(fresh_atom_id ()) ~origin ~withhold_peers:(draw_withhold ()) (List.rev group))
        in
        (* Case 1: prefix splitting — a /25 inside the first prefix,
           exported to a complementary provider subset. *)
        let split_atoms =
          if multihomed && Prng.chance atom_rng config.p_split then begin
            match (prefixes, proper_subset atom_rng providers) with
            | covering :: _, Some subset -> begin
                match Prefix.split covering with
                | Some (specific, _) ->
                    [
                      Atom.make ~id:(fresh_atom_id ()) ~origin
                        ~provider_scope:(Atom.Only_providers subset) ~withhold_peers:(draw_withhold ())
                        [ specific ];
                    ]
                | None -> []
              end
            | _, _ -> []
          end
          else []
        in
        (* Case 2: provider aggregation — an extra prefix carved from a
           provider's block; that provider accepts but never re-exports. *)
        let aggregate_atoms =
          if multihomed && Prng.chance atom_rng config.p_aggregate then begin
            let aggregator = Prng.choice_list atom_rng providers in
            let slot =
              let used = Option.value ~default:8 (Asn.Table.find_opt delegation_slots aggregator) in
              if used > 15 then None
              else begin
                Asn.Table.replace delegation_slots aggregator (used + 1);
                Some used
              end
            in
            match slot with
            | None -> []
            | Some slot ->
                let ablock = block_of_index (index_of aggregator) in
                let delegated = slot_prefix ~block:ablock ~slot in
                (* The aggregator must originate the covering block. *)
                let existing =
                  Option.value ~default:[] (Asn.Table.find_opt aggregator_blocks aggregator)
                in
                if not (List.exists (Prefix.equal ablock) existing) then
                  Asn.Table.replace aggregator_blocks aggregator (ablock :: existing);
                [
                  Atom.make ~id:(fresh_atom_id ()) ~origin
                    ~suppressed_at:(Asn.Set.singleton aggregator) ~withhold_peers:(draw_withhold ())
                    [ delegated ];
                ]
          end
          else []
        in
        base_atoms @ split_atoms @ aggregate_atoms)
      ases
  in
  (* Covering blocks for aggregators, announced unrestricted. *)
  let covering_atoms =
    Asn.Table.fold
      (fun aggregator blocks acc ->
        List.map
          (fun block -> Atom.make ~id:(fresh_atom_id ()) ~origin:aggregator [ block ])
          blocks
        @ acc)
      aggregator_blocks []
  in
  let atoms = atoms @ covering_atoms in
  (* Prefix-granular local-pref overrides at LG vantages: the Fig. 2
     non-next-hop minority, plus a smaller share that violates the typical
     order (Table 2's atypical prefixes). *)
  let lp_overrides : (Asn.t * Asn.t * int) list Int_tbl.t = Int_tbl.create 256 in
  let add_override atom_id triple =
    let existing = Option.value ~default:[] (Int_tbl.find_opt lp_overrides atom_id) in
    Int_tbl.replace lp_overrides atom_id (triple :: existing)
  in
  List.iter
    (fun (atom : Atom.t) ->
      List.iter
        (fun vantage ->
          if Prng.chance override_rng config.p_prefix_override then begin
            let neighbors = As_graph.neighbors graph vantage in
            match neighbors with
            | [] -> ()
            | _ :: _ ->
                let nb, _ = Prng.choice_list override_rng neighbors in
                let lp = Prng.choice override_rng [| 70; 95; 105; 130 |] in
                add_override atom.Atom.id (vantage, nb, lp)
          end;
          if Prng.chance override_rng config.p_atypical_prefix then begin
            (* Grant a peer or provider more preference than customers get
               — for this atom's prefixes only. *)
            let candidates =
              As_graph.peers graph vantage @ As_graph.providers graph vantage
            in
            match candidates with
            | [] -> ()
            | _ :: _ ->
                let nb = Prng.choice_list override_rng candidates in
                let lp_customer =
                  match Asn.Map.find_opt vantage policies with
                  | Some p -> p.Policy.import.Policy.lp_customer
                  | None -> 110
                in
                add_override atom.Atom.id (vantage, nb, lp_customer + 10)
          end)
        lg_ases)
    atoms;
  (* Collector peers: all Tier-1s plus the highest-degree Tier-2s. *)
  let tier2_sorted =
    List.sort
      (fun a b -> Int.compare (As_graph.degree graph b) (As_graph.degree graph a))
      topo.Gen.tier2
  in
  let collector_peers =
    let extra = max 0 (config.n_collector_peers - List.length topo.Gen.tier1) in
    topo.Gen.tier1 @ List.filteri (fun i _ -> i < extra) tier2_sorted
  in
  let retain =
    Asn.Set.union
      (Asn.Set.of_list collector_peers)
      (Asn.Set.union (Asn.Set.of_list lg_ases) (Asn.Set.of_list topo.Gen.tier1))
  in
  let policy_of_asn a =
    match Asn.Map.find_opt a policies with
    | Some p -> p
    | None -> Policy.default a
  in
  (* Intermediate selective announcement: multihomed transit ASs (not the
     collector-visible vantages, whose tables we want complete) restrict
     customer-route re-export to a provider subset. *)
  let transit_rng = Prng.split root in
  let transit_scopes =
    List.fold_left
      (fun acc asn ->
        let providers = As_graph.providers graph asn in
        let has_customers = As_graph.customers graph asn <> [] in
        (* Only small transit ASs do this: a large Tier-2 restricting its
           customer-route exports would black-hole a whole region of the
           hierarchy, which operators at that scale do not do. *)
        let small_transit =
          match Asn.Map.find_opt asn tiers with Some 3 -> true | _ -> false
        in
        if
          has_customers && small_transit
          && List.length providers > 1
          && Prng.chance transit_rng config.p_transit_selective
        then begin
          match proper_subset transit_rng providers with
          | Some subset -> Asn.Map.add asn subset acc
          | None -> acc
        end
        else acc)
      Asn.Map.empty ases
  in
  let network =
    Engine.prepare ~graph
      ~import:(fun a -> (policy_of_asn a).Policy.import)
      ~transit_scope:(fun a -> Asn.Map.find_opt a transit_scopes)
      ~lp_overrides:(quads_of_overrides lp_overrides) ()
  in
  Log.info (fun m -> m "propagating %d atoms over %d ASs" (List.length atoms) (List.length ases));
  let results = Engine.propagate_all network ~retain ~decision atoms in
  let collector = Vantage.collector_rib ~peers:collector_peers results in
  let lg_tables =
    List.map (fun a -> (a, Vantage.rib_at ~policy:(policy_of_asn a) ~vantage:a results)) lg_ases
  in
  {
    config;
    topo;
    graph;
    policies;
    atoms;
    lp_overrides;
    transit_scopes;
    network;
    decision;
    retain;
    results;
    collector_peers;
    collector;
    lg_ases;
    lg_tables;
  }

let policy_of t a =
  match Asn.Map.find_opt a t.policies with
  | Some p -> p
  | None -> Policy.default a

let lg_table t a = List.assoc_opt a t.lg_tables

(* Accessors for rebuilding the scenario's network (or an incremental
   state over it) outside [build] — e.g. the repropagation differential
   oracles and the churn benchmarks, which must hand [Engine.prepare]
   exactly the inputs [build] used.  [lp_override_quads] re-folds the
   same table with the same function [build] used, so the quadruple
   order (and with it [Policy.compile]'s duplicate-key precedence) is
   identical. *)
let lp_override_quads t = quads_of_overrides t.lp_overrides

let import_of t a = (policy_of t a).Policy.import
let transit_scope_of t a = Asn.Map.find_opt a t.transit_scopes

let observed_paths t =
  let collector_paths =
    Rib.fold
      (fun _ routes acc ->
        List.fold_left
          (fun acc (r : Rpi_bgp.Route.t) ->
            match Rpi_bgp.As_path.to_list r.Rpi_bgp.Route.as_path with
            | [] -> acc
            | hops -> hops :: acc)
          acc routes)
      t.collector []
  in
  let lg_paths =
    List.concat_map
      (fun (vantage, rib) -> Rpi_core.Sa_verify.observed_paths_of_rib ~vantage rib)
      t.lg_tables
  in
  collector_paths @ lg_paths
