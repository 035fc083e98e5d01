module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module As_graph = Rpi_topo.As_graph
module Scenario = Rpi_dataset.Scenario
module Export_infer = Rpi_core.Export_infer

type t = {
  scenario : Scenario.t;
  inferred : As_graph.t;
  corrected : As_graph.t;
  path_index : Rpi_core.Sa_verify.path_index;
  irr : Rpi_irr.Db.t;
  collector_origins : (Asn.t * Rpi_net.Prefix.t list) list;
  focus_tier1 : Asn.t list;
  sa_lock : Mutex.t;
  sa_done : Condition.t;
  sa_pending : (int, unit) Hashtbl.t;
  sa_cache : (int, Rib.t * Export_infer.report) Hashtbl.t;
}

(* Section 4.3: re-label a vantage's own adjacencies from the community
   tags its table carries. *)
let correct_with_communities inferred lg_tables =
  List.fold_left
    (fun graph (vantage, rib) ->
      let has_providers = As_graph.providers graph vantage <> [] in
      let semantics =
        Rpi_core.Community_verify.infer_semantics ~vantage ~has_providers rib
      in
      let tags = Rpi_core.Community_verify.neighbor_tags ~vantage rib in
      List.fold_left
        (fun graph (nb, code) ->
          match Rpi_core.Community_verify.classify_neighbor semantics ~code with
          | Some rel -> As_graph.add_edge graph vantage nb rel
          | None -> graph)
        graph tags)
    inferred lg_tables

let default_gao_config =
  { Rpi_relinfer.Gao.default_config with Rpi_relinfer.Gao.peer_degree_ratio = 6.0 }

let create ?config ?(gao_config = default_gao_config) () =
  let scenario = Scenario.build ?config () in
  let paths = Scenario.observed_paths scenario in
  let inferred = Rpi_relinfer.Gao.infer ~config:gao_config paths in
  let corrected = correct_with_communities inferred scenario.Scenario.lg_tables in
  let path_index = Rpi_core.Sa_verify.index_paths paths in
  let irr_rng = Rpi_prng.Prng.create ~seed:(scenario.Scenario.config.Scenario.seed + 7919) in
  let irr =
    Rpi_irr.Gen.registry irr_rng ~graph:scenario.Scenario.graph
      ~policies:(Scenario.policy_of scenario)
  in
  let collector_origins =
    Rpi_core.Export_infer.origins_of_rib scenario.Scenario.collector
  in
  let focus_tier1 =
    List.filter
      (fun a -> As_graph.mem_as scenario.Scenario.graph a)
      (List.map Asn.of_int [ 1; 3549; 7018 ])
  in
  {
    scenario;
    inferred;
    corrected;
    path_index;
    irr;
    collector_origins;
    focus_tier1;
    sa_lock = Mutex.create ();
    sa_done = Condition.create ();
    sa_pending = Hashtbl.create 8;
    sa_cache = Hashtbl.create 8;
  }

let use_ground_truth_graph t =
  (* The SA analysis depends on the graph, so the swapped context gets a
     fresh cache — sharing the original's would serve stale reports. *)
  {
    t with
    inferred = t.scenario.Scenario.graph;
    corrected = t.scenario.Scenario.graph;
    sa_lock = Mutex.create ();
    sa_done = Condition.create ();
    sa_pending = Hashtbl.create 8;
    sa_cache = Hashtbl.create 8;
  }

(* The per-provider SA view, memoized in the context (several tables
   reuse it).  The provider's viewpoint is its own collector feed (its
   best routes with itself stripped from the paths) — using the best route
   across all feeds would classify from the collector's viewpoint, not the
   provider's.

   The cache is shared across domains when experiments run on the parallel
   runner, so every access happens under [sa_lock].  Misses are
   single-flight: the first domain to ask for a provider claims the key in
   [sa_pending], runs the analysis outside the lock, and publishes the
   entry; domains racing on the same key block on [sa_done] instead of
   duplicating the work.  If the analyzing domain raises, it releases the
   claim so a waiter can retry. *)
let sa_view (t : t) provider =
  let key = Asn.to_int provider in
  let rec claim () =
    match Hashtbl.find_opt t.sa_cache key with
    | Some view -> `Ready view
    | None ->
        if Hashtbl.mem t.sa_pending key then begin
          Condition.wait t.sa_done t.sa_lock;
          claim ()
        end
        else begin
          Hashtbl.add t.sa_pending key ();
          `Compute
        end
  in
  Mutex.lock t.sa_lock;
  let decision = claim () in
  Mutex.unlock t.sa_lock;
  match decision with
  | `Ready view -> view
  | `Compute ->
      let publish entry =
        Mutex.lock t.sa_lock;
        Hashtbl.remove t.sa_pending key;
        (match entry with
        | Some view -> Hashtbl.add t.sa_cache key view
        | None -> ());
        Condition.broadcast t.sa_done;
        Mutex.unlock t.sa_lock
      in
      (match
         let viewpoint =
           Export_infer.viewpoint_of_feed ~feed:provider
             t.scenario.Scenario.collector
         in
         ( viewpoint,
           Export_infer.analyze t.corrected ~provider
             ~origins:t.collector_origins viewpoint )
       with
      | view ->
          publish (Some view);
          view
      | exception e ->
          publish None;
          raise e)

let sa_report t provider = snd (sa_view t provider)

let paths_for_prefix t prefix =
  let of_routes ?prepend routes =
    List.filter_map
      (fun (r : Rpi_bgp.Route.t) ->
        match Rpi_bgp.As_path.to_list r.Rpi_bgp.Route.as_path with
        | [] -> None
        | hops -> begin
            match prepend with
            | Some vantage -> Some (vantage :: hops)
            | None -> Some hops
          end)
      routes
  in
  let collector_paths =
    of_routes (Rpi_bgp.Rib.candidates t.scenario.Scenario.collector prefix)
  in
  let lg_paths =
    List.concat_map
      (fun (vantage, rib) ->
        of_routes ~prepend:vantage (Rpi_bgp.Rib.candidates rib prefix))
      t.scenario.Scenario.lg_tables
  in
  collector_paths @ lg_paths
