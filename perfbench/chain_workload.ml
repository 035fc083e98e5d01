(* The paper's batch pipeline on one generated world, one call into each
   layer per stage: propagate -> extract vantage tables -> write MRT text
   -> parse it back -> Gao relationships -> import / export / peer-export
   / community inference -> ingest registry. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module As_graph = Rpi_topo.As_graph
module Scenario = Rpi_dataset.Scenario
module Engine = Rpi_sim.Engine
module Vantage = Rpi_sim.Vantage
module Table_dump = Rpi_mrt.Table_dump
module Show_ip_bgp = Rpi_mrt.Show_ip_bgp
module Loader = Rpi_mrt.Loader
module Gao = Rpi_relinfer.Gao
module Validate = Rpi_relinfer.Validate
module Import_infer = Rpi_core.Import_infer
module Export_infer = Rpi_core.Export_infer
module Peer_export = Rpi_core.Peer_export
module Community_verify = Rpi_core.Community_verify
module State = Rpi_ingest.State
module Render = Rpi_ingest.Render
module Registry = Rpi_serve.Registry
module Protocol = Rpi_serve.Protocol
module Replay = Rpi_serve.Replay
module M = Measure

let config ~seed =
  { Scenario.default_config with Scenario.seed; topology = Rpi_topo.Gen.scale_config ~n:1000 }

(* The ratio the experiments use on the generated worlds. *)
let gao_config = { Gao.default_config with Gao.peer_degree_ratio = 6.0 }
let collector_as = Asn.of_int 6447

type tables = {
  collector : Rib.t;
  lg_dumps : (Asn.t * Rib.t) list;  (** Tables carrying communities. *)
  lg_shows : (Asn.t * Rib.t) list;  (** Tables carrying local preference. *)
}

type inferred = {
  graph : As_graph.t;
  imports : Import_infer.report list;
  exports : Export_infer.report list;
  peers : Peer_export.report list;
  communities : Community_verify.report list;
  registry : Registry.t;
  states : State.t list;
}

let infer (s : Scenario.t) t =
  let graph =
    M.span "relinfer.gao" (fun () ->
        Gao.infer ~config:gao_config
          (Scenario.observed_paths
             { s with Scenario.collector = t.collector; lg_tables = t.lg_dumps }))
  in
  let imports =
    M.span "core.import_infer" (fun () ->
        List.map (fun (a, rib) -> Import_infer.analyze graph ~vantage:a rib) t.lg_shows)
  in
  let origins, exports =
    M.span "core.export_infer" (fun () ->
        let origins = Export_infer.origins_of_rib t.collector in
        ( origins,
          List.map
            (fun feed ->
              Export_infer.analyze graph ~provider:feed ~origins
                (Export_infer.viewpoint_of_feed ~feed t.collector))
            s.Scenario.collector_peers ))
  in
  let peers =
    M.span "core.peer_export" (fun () ->
        List.map
          (fun (a, rib) -> Peer_export.analyze graph ~vantage:a ~reference:t.collector rib)
          t.lg_dumps)
  in
  let communities =
    M.span "core.community_verify" (fun () ->
        List.map (fun (a, rib) -> Community_verify.verify ~vantage:a ~inferred:graph rib) t.lg_dumps)
  in
  let registry, states =
    M.span "ingest.registry" (fun () ->
        let collector = State.create ~graph ~vantage:Replay.collector_label ~initial:t.collector () in
        let feeds =
          List.map
            (fun feed ->
              ( feed,
                State.create ~graph ~vantage:feed ~origins:(State.Fixed origins)
                  ~initial:(Export_infer.viewpoint_of_feed ~feed t.collector)
                  () ))
            (List.filteri (fun i _ -> i < 2) s.Scenario.collector_peers)
        in
        (Registry.create ~collector ~vantages:feeds, collector :: List.map snd feeds))
  in
  { graph; imports; exports; peers; communities; registry; states }

type op_out = {
  memory : tables;  (** Tables extracted in memory. *)
  texts : (string * [ `Dump of Asn.t | `Show ] * string) list;
  parsed : tables;
  steps : int;
  inf : inferred;
}

let op (s : Scenario.t) =
  let results =
    M.span "sim.propagate" (fun () ->
        Engine.propagate_all s.Scenario.network ~retain:s.Scenario.retain
          ~decision:s.Scenario.decision ~jobs:1 s.Scenario.atoms)
  in
  let memory =
    M.span "sim.vantage" (fun () ->
        let collector = Vantage.collector_rib ~peers:s.Scenario.collector_peers results in
        let lgs =
          List.map
            (fun a -> (a, Vantage.rib_at ~policy:(Scenario.policy_of s a) ~vantage:a results))
            s.Scenario.lg_ases
        in
        { collector; lg_dumps = lgs; lg_shows = lgs })
  in
  let steps = List.fold_left (fun acc (r : Engine.result) -> acc + r.Engine.steps) 0 results in
  let texts =
    M.span "mrt.write" (fun () ->
        let dump a rib = (Asn.to_label a, `Dump a, Table_dump.rib_to_string ~vantage_as:a rib) in
        (dump collector_as memory.collector :: List.map (fun (a, rib) -> dump a rib) memory.lg_dumps)
        @ List.map
            (fun (a, rib) -> (Asn.to_label a ^ ".show", `Show, Show_ip_bgp.render rib))
            memory.lg_shows)
  in
  let parsed =
    M.span "mrt.parse" (fun () ->
        List.map
          (fun (label, kind, text) ->
            match Loader.parse_any text with
            | Ok rib -> (kind, rib)
            | Error e -> failwith (Printf.sprintf "parse of %s failed: %s" label e))
          texts)
  in
  let parsed =
    match parsed with
    | (_, collector) :: rest ->
        let lg_dumps = List.filter_map (function `Dump a, rib -> Some (a, rib) | `Show, _ -> None) rest in
        let shows = List.filter_map (function `Show, rib -> Some rib | `Dump _, _ -> None) rest in
        { collector; lg_dumps; lg_shows = List.combine s.Scenario.lg_ases shows }
    | [] -> failwith "no tables written"
  in
  let inf = infer s parsed in
  { memory; texts; parsed; steps; inf }

(* Every report the chain produces, rendered to bytes: what the gates
   compare and the digest covers. *)
let reports (inf : inferred) =
  let js = Rpi_json.to_string in
  let community (r : Community_verify.report) =
    Printf.sprintf "community %s checked=%d matching=%d mismatches=%s"
      (Asn.to_label r.Community_verify.vantage)
      r.Community_verify.neighbors_checked r.Community_verify.matching
      (String.concat ","
         (List.map
            (fun (a, x, y) ->
              Printf.sprintf "%s:%s/%s" (Asn.to_label a) (Rpi_topo.Relationship.to_string x)
                (Rpi_topo.Relationship.to_string y))
            r.Community_verify.mismatches))
  in
  let queries =
    Protocol.Stats
    :: List.concat_map
         (fun (v, _) -> [ Protocol.Sa_status { asn = v; prefix = None }; Protocol.Import_pref v ])
         inf.registry.Registry.vantages
  in
  (As_graph.render_edges inf.graph :: List.map (fun r -> js (Render.import_pref r)) inf.imports)
  @ List.map (fun r -> js (Render.sa ~viewpoint:"own-feed" r)) inf.exports
  @ List.map (fun r -> js (Render.peer_export r)) inf.peers
  @ List.map community inf.communities
  @ List.map (fun q -> fst (Registry.respond_rendered inf.registry q)) queries

let digest strings = Digest.to_hex (Digest.string (String.concat "\n" strings))

(* A world's gate, on its first timed op: the extracted tables are the
   scenario's own, every parsed table re-serialises to the exact bytes
   written, and reports from the parsed tables equal reports from the
   in-memory ones. *)
let gate (s : Scenario.t) out =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if not (Rib.equal out.memory.collector s.Scenario.collector) then
    fail "collector table differs from the scenario's";
  List.iter2
    (fun (a, rib) (_, mine) ->
      if not (Rib.equal rib mine) then fail "LG table of %s differs" (Asn.to_label a))
    s.Scenario.lg_tables out.memory.lg_dumps;
  let reparsed =
    (out.parsed.collector :: List.map snd out.parsed.lg_dumps) @ List.map snd out.parsed.lg_shows
  in
  List.iter2
    (fun (label, kind, text) rib ->
      let again =
        match kind with
        | `Dump a -> Table_dump.rib_to_string ~vantage_as:a rib
        | `Show -> Show_ip_bgp.render rib
      in
      if not (String.equal again text) then fail "%s does not round-trip" label)
    out.texts reparsed;
  let from_parsed = reports out.inf in
  let from_memory = reports (infer s out.memory) in
  if not (List.equal String.equal from_parsed from_memory) then
    fail "reports from parsed tables differ from reports from in-memory tables";
  (List.rev !errors, digest from_parsed)

let mb_of_texts texts =
  float_of_int (List.fold_left (fun acc (_, _, t) -> acc + String.length t) 0 texts) /. 1e6

let routes_of (t : tables) =
  List.fold_left
    (fun acc (_, rib) -> acc + Rib.route_count rib)
    (Rib.route_count t.collector)
    (t.lg_dumps @ t.lg_shows)

(* What one world's gate op tells about its input. *)
type world_stats = {
  mb : float;  (** MRT text written per op. *)
  routes : int;  (** Routes parsed per op. *)
  vantage_routes : int;
  steps : int;
  n_as_atoms : int;
  accuracy : float;
  edges : int;
  sa_prefixes : int;
  recomputed : int;
}

let stats (s : Scenario.t) out =
  {
    mb = mb_of_texts out.texts;
    routes = routes_of out.parsed;
    vantage_routes = routes_of out.memory;
    steps = out.steps;
    n_as_atoms = As_graph.as_count s.Scenario.graph * List.length s.Scenario.atoms;
    accuracy =
      Validate.accuracy (Validate.compare_graphs ~truth:s.Scenario.graph ~inferred:out.inf.graph);
    edges = As_graph.edge_count out.inf.graph;
    sa_prefixes =
      List.fold_left (fun acc (r : Export_infer.report) -> acc + List.length r.Export_infer.sa) 0
        out.inf.exports;
    recomputed =
      List.fold_left (fun acc st -> acc + (State.counters st).State.prefixes_recomputed) 0
        out.inf.states;
  }

(* A run times two ops on each of four worlds.  An op's CPU time moves by
   up to ~40% with the host (every layer of a slow op is slow alike), and
   worlds differ in cost too, so a run needs both several ops and several
   worlds; each world's gate costs ~2 s on top of its ops.  Traced runs
   trace one of a world's two ops (worlds alternate which), so the tracing
   overhead compares the same work.  [seconds] only bounds the run: no
   world starts after [4 * seconds]. *)
let worlds = 4
let ops_per_world = 2

let run ~seed ~seconds ~trace =
  let setup_times = Array.make worlds 0.0 and setup_cpu = Array.make worlds 0.0 in
  let failed = ref 0 and ops = ref 0 and op_id = ref 0 in
  let cpu = ref [] and wall = ref [] and gaps = ref [] and traced_wall = ref [] and plain_wall = ref [] in
  let peaks = ref [] and world_stats = ref [] in
  let host = Bench_common.host_start () in
  let t_run = M.now () in
  let built = ref 0 in
  while !built < worlds && (!built = 0 || M.now () -. t_run < 4.0 *. seconds) do
    let k = !built in
    incr built;
    let s =
      Bench_common.build_world setup_times setup_cpu k ~trace (fun () ->
          M.span "dataset.build" (fun () ->
              Scenario.build ~config:(config ~seed:(Bench_common.world_seed ~seed k)) ()))
    in
    Printf.printf "chain: world %d (seed %d): %d ASes, %d atoms, %d collector feeds, %d LG vantages\n%!"
      k (Bench_common.world_seed ~seed k)
      (As_graph.as_count s.Scenario.graph)
      (List.length s.Scenario.atoms)
      (List.length s.Scenario.collector_peers)
      (List.length s.Scenario.lg_ases);
    (* A world's gate runs on its first op, after that op's timer stopped;
       later ops must reproduce the gated op's report digest. *)
    let gated out =
      let errors, digest = gate s out in
      List.iter (Printf.printf "chain gate FAILED: %s\n") errors;
      if errors <> [] then incr failed;
      Printf.printf "chain: world %d report digest %s\n%!" k digest;
      world_stats := stats s out :: !world_stats;
      digest
    in
    (* The process's first op warms up untimed; it carries world 0's gate. *)
    let expected = ref (if k = 0 then Some (gated (op s)) else None) in
    let peak = ref 0.0 in
    for i = 1 to ops_per_world do
      incr op_id;
      let traced = trace && (i + k) mod 2 = 1 in
      (* Untimed: the previous op's garbage is collected, and the peak
         counts this op alone, not the gate or digest check after it. *)
      Bench_common.restart_peak ();
      Bench_common.calibrate ();
      M.set_enabled traced;
      M.set_op !op_id;
      let c0 = M.cpu_seconds () and w0 = M.now () in
      let out = op s in
      let w1 = M.now () and c1 = M.cpu_seconds () in
      M.set_enabled false;
      Bench_common.fold_peak peak;
      incr ops;
      cpu := (c1 -. c0) :: !cpu;
      wall := (w1 -. w0) :: !wall;
      gaps := 1000.0 *. (w1 -. w0 -. (c1 -. c0)) :: !gaps;
      if trace then
        if traced then traced_wall := (w1 -. w0) :: !traced_wall
        else plain_wall := (w1 -. w0) :: !plain_wall;
      match !expected with
      | None -> expected := Some (gated out)
      | Some d ->
          if not (String.equal (digest (reports out.inf)) d) then begin
            incr failed;
            Printf.printf "chain: op %d report digest differs\n%!" !op_id
          end
    done;
    peaks := !peak :: !peaks
  done;
  let worlds = !built in
  let setup_times = Array.sub setup_times 0 worlds and setup_cpu = Array.sub setup_cpu 0 worlds in
  let cpu = Array.of_list (List.rev !cpu) in
  Printf.printf "chain: per-op CPU ms %s\n"
    (String.concat " " (Array.to_list (Array.map (fun c -> Printf.sprintf "%.0f" (1000.0 *. c)) cpu)));
  let noise =
    Bench_common.host_noise host
      (("wall_cpu_gap_ms", Rpi_json.List (List.rev_map (fun g -> Rpi_json.Float g) !gaps))
      :: ("world_peaks_mb", Bench_common.float_list (Array.of_list (List.rev !peaks)))
      :: Bench_common.setup_noise ~wall:setup_times ~cpu:setup_cpu)
  in
  let ws = !world_stats in
  let med f = M.median (Array.of_list (List.map f ws)) in
  let wall = Array.of_list !wall in
  let e2e =
    Bench_common.e2e ~centre:M.median
      ~kernel:(Array.of_list !Bench_common.kernel_times)
      ~setup_cpu ~cpu ~p50:wall ~lat:wall ~top:990
      ~ops_per_s:(float_of_int !ops /. Array.fold_left ( +. ) 0.0 wall)
      ~peaks:!peaks
  in
  let per_layer =
    if not trace then []
    else
      let layers = M.layers (M.spans ()) in
      let ms name =
        match List.find_opt (fun (l : M.layer) -> String.equal l.M.layer name) layers with
        | Some l -> l.M.ms
        | None -> Float.nan
      in
      let n name unit_ v = Bench_common.metric name unit_ v worlds in
      Bench_common.layer_metrics layers
      @ [
          n "sim.propagate.steps" "count" (med (fun w -> float_of_int w.steps));
          n "sim.propagate.ns_per_as_atom" "ns"
            (1e6 *. ms "sim.propagate" /. med (fun w -> float_of_int w.n_as_atoms));
          n "sim.vantage.routes" "count" (med (fun w -> float_of_int w.vantage_routes));
          n "mrt.write.mb_per_s" "MB/s" (med (fun w -> w.mb) /. (ms "mrt.write" /. 1000.0));
          n "mrt.parse.mb_per_s" "MB/s" (med (fun w -> w.mb) /. (ms "mrt.parse" /. 1000.0));
          n "mrt.parse.routes" "count" (med (fun w -> float_of_int w.routes));
          n "relinfer.gao.edges" "count" (med (fun w -> float_of_int w.edges));
          n "relinfer.gao.accuracy" "share" (med (fun w -> w.accuracy));
          n "core.export_infer.sa_prefixes" "count" (med (fun w -> float_of_int w.sa_prefixes));
          n "ingest.registry.prefixes_recomputed" "count" (med (fun w -> float_of_int w.recomputed));
          Bench_common.overhead_metric ~traced:!traced_wall ~plain:!plain_wall ();
        ]
  in
  Printf.printf "chain: %.1f MB of MRT text and %.0f routes parsed per op (median world)\n"
    (med (fun w -> w.mb))
    (med (fun w -> float_of_int w.routes));
  {
    Bench_common.e2e;
    per_layer;
    attempted = !ops;
    failed = !failed;
    noise;
    spans = M.spans ();
  }
