(* Benchmark harness.

   Three things happen here, in order:

   1. The full evaluation of the paper is regenerated on the default
      scenario — sequentially first (one domain), then again on the
      multicore runner's domain pool — and the two rendered outputs are
      checked byte-identical.  The sequential output is printed (the same
      report as `experiments run all`).

   2. Bechamel micro-benchmarks time the computational kernel behind each
      table/figure — one Test.make per experiment — plus the substrate
      hot paths (prefix-trie lookup vs list scan, decision process, route
      propagation, relationship inference, table parsing).

   3. Everything is written to BENCH_results.json — per-test OLS ns/run,
      per-experiment wall-clock, and the sequential vs parallel run_all
      wall-clock — so future changes have a machine-readable baseline to
      diff against. *)

open Bechamel

module Asn = Rpi_bgp.Asn
module Path_intern = Rpi_bgp.Path_intern
module Prefix = Rpi_net.Prefix
module Scenario = Rpi_dataset.Scenario
module Context = Rpi_experiments.Context
module Exp = Rpi_experiments.Exp
module Runner = Rpi_runner.Runner
module Replay = Rpi_serve.Replay
module Registry = Rpi_serve.Registry
module Protocol = Rpi_serve.Protocol
module Server = Rpi_serve.Server
module Eventloop = Rpi_serve.Eventloop
module Prng = Rpi_prng.Prng
module Rib = Rpi_bgp.Rib
module Update = Rpi_bgp.Update
module IState = Rpi_ingest.State
module Render = Rpi_ingest.Render
module Export_infer = Rpi_core.Export_infer

(* --- Part 1: regenerate the evaluation, sequential vs parallel --- *)

let regenerate () =
  print_endline "==============================================================";
  print_endline " Reproduction of every table and figure (paper vs measured)";
  print_endline "==============================================================";
  (* Fresh contexts for each run: the context memoizes the SA analyses, so
     reusing one would hand the second run a warm cache and make the
     comparison meaningless. *)
  let seq_ctx = Context.create () in
  let seq = Runner.run ~jobs:1 seq_ctx Exp.all in
  print_endline (Runner.render seq);
  let jobs = max 2 (Rpi_pool.Jobs.default ()) in
  let par_ctx = Context.create () in
  let par = Runner.run ~jobs par_ctx Exp.all in
  let identical = String.equal (Runner.render seq) (Runner.render par) in
  print_endline "==============================================================";
  print_endline " run_all wall-clock, sequential vs parallel";
  print_endline "==============================================================";
  Printf.printf "sequential (1 domain):   %8.2f s\n" seq.Runner.wall_clock_s;
  Printf.printf "parallel   (%d domains): %8.2f s  (speedup %.2fx)\n" par.Runner.jobs
    par.Runner.wall_clock_s
    (seq.Runner.wall_clock_s /. par.Runner.wall_clock_s);
  Printf.printf "outputs byte-identical:  %b\n" identical;
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host domains available:  %d%s\n" cores
    (if cores < 2 then "  (single core: no parallel speedup is possible here)"
     else "");
  (seq, par, identical)

(* --- Part 2: micro-benchmarks --- *)

(* A small context keeps each benchmarked kernel in the millisecond range
   so Bechamel can sample it repeatedly. *)
let small_ctx () =
  Context.create ~config:{ Scenario.small_config with Scenario.seed = 1 } ()

let experiment_tests ctx =
  (* One Test.make per table/figure: times the analysis kernel on a
     prepared small context (dataset construction is excluded — that cost
     is the simulator's, timed separately below).  Experiments that cache
     intermediate results in the context run warm after the first
     sample. *)
  let quick =
    List.filter
      (fun (e : Exp.t) ->
        (* The persistence experiment re-simulates dozens of epochs, and
           the stability sweep rebuilds whole worlds; both are far too
           heavy for a sampling loop. *)
        (not (String.equal e.Exp.id "fig6+7"))
        && (not (String.equal e.Exp.id "churn-persistence"))
        && (not (String.equal e.Exp.id "stability"))
        (* ns-bgp rebuilds two whole worlds per run, like stability. *)
        && not (String.equal e.Exp.id "ns-bgp"))
      Exp.all
  in
  List.map
    (fun (e : Exp.t) ->
      Test.make ~name:("exp/" ^ e.Exp.id) (Staged.stage (fun () -> ignore (e.Exp.run ctx))))
    quick

let substrate_tests small =
  let rng = Rpi_prng.Prng.create ~seed:3 in
  (* Prefix trie vs association list: longest-match over 4096 prefixes. *)
  let prefixes =
    List.init 4096 (fun i ->
        Prefix.make (Rpi_net.Ipv4.of_int32_exn (i * 65536)) (16 + (i mod 9)))
  in
  let trie =
    List.fold_left (fun t p -> Rpi_net.Prefix_trie.add p () t) Rpi_net.Prefix_trie.empty
      prefixes
  in
  let addr = Rpi_net.Ipv4.of_string_exn "0.42.7.1" in
  let assoc = List.map (fun p -> (p, ())) prefixes in
  let assoc_longest_match a =
    List.fold_left
      (fun acc (p, ()) ->
        if Prefix.contains p a then begin
          match acc with
          | Some (q, ()) when Prefix.length q >= Prefix.length p -> acc
          | Some _ | None -> Some (p, ())
        end
        else acc)
      None assoc
  in
  (* Decision process over a 50-route candidate set. *)
  let mk_route i =
    Rpi_bgp.Route.make
      ~prefix:(Prefix.of_string_exn "10.0.0.0/24")
      ~next_hop:(Rpi_net.Ipv4.of_octets 10 0 (i mod 250) 1)
      ~as_path:(Rpi_bgp.As_path.of_list (List.init (1 + (i mod 5)) (fun k -> Asn.of_int (100 + k))))
      ~local_pref:(90 + (i mod 3 * 10))
      ~router_id:(Rpi_net.Ipv4.of_octets 1 1 1 (i mod 250))
      ~peer_as:(Asn.of_int (100 + (i mod 7)))
      ()
  in
  let candidates = List.init 50 mk_route in
  (* Route propagation: one atom over a mid-size topology. *)
  let topo =
    Rpi_topo.Gen.generate
      ~config:
        {
          Rpi_topo.Gen.default_config with
          Rpi_topo.Gen.n_tier1 = 6;
          n_tier2 = 24;
          n_tier3 = 80;
          n_stub = 200;
        }
      rng
  in
  let network =
    Rpi_sim.Engine.prepare ~graph:topo.Rpi_topo.Gen.graph
      ~import:(fun _ -> Rpi_sim.Policy.default_import)
      ()
  in
  let origin = List.nth topo.Rpi_topo.Gen.stubs 0 in
  let atom = Rpi_sim.Atom.vanilla ~id:0 ~origin [ Prefix.of_string_exn "10.0.0.0/24" ] in
  let retain = Asn.Set.of_list topo.Rpi_topo.Gen.tier1 in
  (* Relationship inference over the small topology's observed paths. *)
  let paths = Scenario.observed_paths small.Context.scenario in
  (* Parsing: a 2000-line table dump. *)
  let some_lg_rib =
    match small.Context.scenario.Scenario.lg_tables with
    | (_, rib) :: _ -> rib
    | [] -> Rpi_bgp.Rib.empty
  in
  let dump =
    Rpi_mrt.Table_dump.rib_to_string ~vantage_as:(Asn.of_int 1) some_lg_rib
  in
  let irr_text = Rpi_irr.Db.render small.Context.irr in
  (* Interned-path substrate: interning throughput over the observed-path
     corpus, and the comparator the engine runs per candidate pair —
     memoized-length ids vs walking [Asn.t list]s. *)
  let intern = Path_intern.create () in
  let ids = Array.of_list (List.map (Path_intern.of_list intern) paths) in
  let list_paths = Array.of_list paths in
  let n_paths = Array.length ids in
  let compare_interned a b =
    match Int.compare (Path_intern.length intern a) (Path_intern.length intern b) with
    | 0 -> Path_intern.compare_lex intern a b
    | c -> c
  in
  let compare_lists a b =
    (* This IS the anti-pattern being measured: the list-walking baseline
       that path-intern-compare is benchmarked against. *)
    (* rpilint: allow list-length-in-compare *)
    match Int.compare (List.length a) (List.length b) with
    | 0 -> List.compare Asn.compare a b
    | c -> c
  in
  (* Atom-level fan-out: a batch of announcements from distinct stubs, the
     shape [table5] and the ablations feed [propagate_all].  On a
     single-domain host the parallel variant only measures the fan-out
     overhead — see the host_domains field in the baseline. *)
  let batch_atoms =
    List.filteri (fun i _ -> i < 8) topo.Rpi_topo.Gen.stubs
    |> List.mapi (fun i origin ->
           Rpi_sim.Atom.vanilla ~id:i ~origin [ Prefix.of_string_exn "10.0.0.0/24" ])
  in
  let fan_jobs = max 2 (Rpi_pool.Jobs.default ()) in
  [
    Test.make ~name:"substrate/trie-longest-match"
      (Staged.stage (fun () -> ignore (Rpi_net.Prefix_trie.longest_match addr trie)));
    Test.make ~name:"substrate/assoc-longest-match"
      (Staged.stage (fun () -> ignore (assoc_longest_match addr)));
    Test.make ~name:"substrate/decision-50-candidates"
      (Staged.stage (fun () -> ignore (Rpi_bgp.Decision.select_best candidates)));
    Test.make ~name:"substrate/engine-propagate-atom"
      (Staged.stage (fun () -> ignore (Rpi_sim.Engine.propagate network ~retain atom)));
    Test.make ~name:"substrate/ns-bgp-propagate"
      (Staged.stage (fun () ->
           ignore
             (Rpi_sim.Engine.propagate network ~retain
                ~decision:Rpi_sim.Decision.neighbor_specific atom)));
    Test.make ~name:"substrate/propagate-all-seq"
      (Staged.stage (fun () ->
           ignore (Rpi_sim.Engine.propagate_all network ~retain ~jobs:1 batch_atoms)));
    Test.make ~name:"substrate/propagate-all-parallel"
      (Staged.stage (fun () ->
           ignore (Rpi_sim.Engine.propagate_all network ~retain ~jobs:fan_jobs batch_atoms)));
    Test.make ~name:"substrate/path-intern-corpus"
      (Staged.stage (fun () ->
           let t = Path_intern.create () in
           List.iter (fun p -> ignore (Path_intern.of_list t p)) paths));
    Test.make ~name:"substrate/path-intern-compare"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to n_paths - 1 do
             let j = ((i * 7) + 1) mod n_paths in
             acc := !acc + compare_interned ids.(i) ids.(j)
           done;
           ignore !acc));
    Test.make ~name:"substrate/path-list-compare"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           for i = 0 to n_paths - 1 do
             let j = ((i * 7) + 1) mod n_paths in
             acc := !acc + compare_lists list_paths.(i) list_paths.(j)
           done;
           ignore !acc));
    Test.make ~name:"substrate/gao-infer"
      (Staged.stage (fun () -> ignore (Rpi_relinfer.Gao.infer paths)));
    Test.make ~name:"substrate/table-dump-parse"
      (Staged.stage (fun () -> ignore (Rpi_mrt.Table_dump.parse_to_rib dump)));
    Test.make ~name:"substrate/rpsl-parse"
      (Staged.stage (fun () -> ignore (Rpi_irr.Rpsl.parse irr_text)));
  ]

let run_benchmarks ?(quota = 0.5) tests =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second quota) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"rpi" ~fmt:"%s %s" tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  print_endline "==============================================================";
  print_endline " Micro-benchmarks (monotonic clock, OLS estimate per run)";
  print_endline "==============================================================";
  List.filter_map
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      let human =
        if Float.is_nan estimate then "n/a"
        else if estimate > 1e9 then Printf.sprintf "%8.2f s " (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%8.2f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%8.2f us" (estimate /. 1e3)
        else Printf.sprintf "%8.0f ns" estimate
      in
      Printf.printf "%-40s %s\n" name human;
      if Float.is_nan estimate then None else Some (name, estimate))
    rows

(* Intern hit rate over the observed-path corpus: how much sharing the
   hash-consed representation actually finds.  A high hit rate is the
   whole premise of interning — most cons cells seen during a run already
   exist, so path construction is a table probe, not an allocation. *)
let intern_hit_rate small =
  let paths = Scenario.observed_paths small.Context.scenario in
  let t = Path_intern.create () in
  List.iter (fun p -> ignore (Path_intern.of_list t p)) paths;
  let s = Path_intern.stats t in
  let probes = s.Path_intern.hits + s.Path_intern.misses in
  let rate =
    if probes = 0 then 0.0 else float_of_int s.Path_intern.hits /. float_of_int probes
  in
  Printf.printf
    "path intern: %d paths -> %d unique cells, %d/%d cons hits (%.1f%% hit rate)\n"
    (List.length paths) s.Path_intern.unique s.Path_intern.hits probes (100.0 *. rate);
  Rpi_json.Obj
    [
      ("paths", Rpi_json.Int (List.length paths));
      ("unique_cells", Rpi_json.Int s.Path_intern.unique);
      ("cons_hits", Rpi_json.Int s.Path_intern.hits);
      ("cons_misses", Rpi_json.Int s.Path_intern.misses);
      ("hit_rate", Rpi_json.Float rate);
    ]

(* --- Part 2.5: streaming ingest vs per-epoch full recompute --- *)

(* The daemon's value proposition, measured: replay the persistence-study
   timeline (31 monthly epochs) through [Rpi_ingest] — updates applied,
   dirty prefixes refreshed, reports re-materialized — against the
   pre-daemon path that re-ran [Export_infer.analyze] over every table
   from scratch each epoch.  Both sides render the same stats + per-
   vantage SA NDJSON, and the outputs must stay byte-identical. *)
let bench_ingest_replay ~epochs =
  print_endline "==============================================================";
  Printf.printf " Streaming ingest vs full recompute (%d monthly epochs)\n" epochs;
  print_endline "==============================================================";
  let plan = Replay.plan ~epochs () in
  let graph = plan.Replay.scenario.Scenario.graph in
  let registry = Replay.registry plan in
  let js = Rpi_json.to_string in
  (* Incremental: drive the daemon's ingest path and force the reports a
     client would query after every epoch. *)
  let rec drive (laps, outs) =
    let t0 = Unix.gettimeofday () in
    if Replay.step plan then begin
      let out =
        js (Render.stats_of_state registry.Registry.collector)
        :: List.map
             (fun (_, st) -> js (Render.sa ~viewpoint:"own-feed" (IState.sa_report st)))
             registry.Registry.vantages
      in
      drive ((Unix.gettimeofday () -. t0) :: laps, out :: outs)
    end
    else (List.rev laps, List.rev outs)
  in
  let inc_laps, inc_outs = drive ([], []) in
  (* Batch: from-scratch [Export_infer.analyze] + stats over the expected
     tables — what every report cost before the ingest subsystem. *)
  let batch_one (s : Replay.step) =
    let t0 = Unix.gettimeofday () in
    let origins = Export_infer.origins_of_rib s.Replay.expected_collector in
    let out =
      js (Render.stats_of_rib s.Replay.expected_collector)
      :: List.map
           (fun (v, view) ->
             js
               (Render.sa ~viewpoint:"own-feed"
                  (Export_infer.analyze graph ~provider:v ~origins view)))
           s.Replay.expected_views
    in
    (Unix.gettimeofday () -. t0, out)
  in
  let batch = List.map batch_one plan.Replay.steps in
  let batch_laps = List.map fst batch and batch_outs = List.map snd batch in
  let identical = inc_outs = batch_outs in
  let total = List.fold_left ( +. ) 0.0 in
  let inc_s = total inc_laps and batch_s = total batch_laps in
  let mean_ms laps = 1e3 *. total laps /. float_of_int (max 1 (List.length laps)) in
  let max_ms laps = 1e3 *. List.fold_left Float.max 0.0 laps in
  let speedup = if inc_s > 0.0 then batch_s /. inc_s else Float.nan in
  Printf.printf "incremental ingest:  %8.3f s total  (%.2f ms mean, %.2f ms max per epoch)\n"
    inc_s (mean_ms inc_laps) (max_ms inc_laps);
  Printf.printf "full recompute:      %8.3f s total  (%.2f ms mean, %.2f ms max per epoch)\n"
    batch_s (mean_ms batch_laps) (max_ms batch_laps);
  Printf.printf "speedup:             %8.2fx\n" speedup;
  Printf.printf "outputs byte-identical: %b\n" identical;
  Rpi_json.Obj
    [
      ("epochs", Rpi_json.Int (List.length inc_laps));
      ("vantages", Rpi_json.Int (List.length plan.Replay.vantages));
      ("incremental_s", Rpi_json.Float inc_s);
      ("batch_s", Rpi_json.Float batch_s);
      ("incremental_mean_ms", Rpi_json.Float (mean_ms inc_laps));
      ("incremental_max_ms", Rpi_json.Float (max_ms inc_laps));
      ("batch_mean_ms", Rpi_json.Float (mean_ms batch_laps));
      ("batch_max_ms", Rpi_json.Float (max_ms batch_laps));
      ("speedup", Rpi_json.Float speedup);
      ("identical_output", Rpi_json.Bool identical);
    ]

(* --- Part 2.55: incremental repropagation vs per-epoch batch --- *)

(* The engine-level counterpart of the ingest replay: a seeded churn
   stream (link flaps, relationship migrations, announce/withdraw cycles)
   applied epoch by epoch, solved once through [Engine.repropagate] and
   once through the pre-incremental path — a fresh [Engine.prepare] +
   [Engine.propagate_all] of every announced atom per epoch.  The
   scenario's atypical-preference minorities are zeroed so the stable
   state is unique and the two paths must agree byte-for-byte (the churn
   generator preserves customer-provider acyclicity for the same
   reason). *)
let churn_world ~epochs =
  let config =
    {
      Scenario.default_config with
      Scenario.seed = 5;
      topology =
        {
          Rpi_topo.Gen.default_config with
          Rpi_topo.Gen.n_tier1 = 4;
          n_tier2 = 8;
          n_tier3 = 16;
          n_stub = 60;
        };
      prefixes_per_tier = (3, 3, 2, 2);
      p_atypical_neighbor = 0.0;
      p_atypical_prefix = 0.0;
      p_prefix_override = 0.0;
      n_collector_peers = 8;
      n_lg = 5;
      atoms_per_as = 2;
    }
  in
  let s = Scenario.build ~config () in
  let atoms = s.Scenario.atoms in
  let atom_ids = List.map (fun (a : Rpi_sim.Atom.t) -> a.Rpi_sim.Atom.id) atoms in
  let rng = Rpi_prng.Prng.create ~seed:17 in
  let stream =
    Rpi_topo.Churn.generate rng ~graph:s.Scenario.graph ~atom_ids ~epochs
  in
  (s, atoms, stream)

let churn_results_equal (xs : Rpi_sim.Engine.result list) ys =
  (* Everything observable must match; [steps] legitimately differs (the
     incremental solver accumulates worklist pops across epochs). *)
  List.equal
    (fun (x : Rpi_sim.Engine.result) (y : Rpi_sim.Engine.result) ->
      x.Rpi_sim.Engine.converged = y.Rpi_sim.Engine.converged
      && Rpi_sim.Atom.equal x.Rpi_sim.Engine.atom y.Rpi_sim.Engine.atom
      && Asn.Map.equal
           (fun (ta : Rpi_sim.Engine.table) (tb : Rpi_sim.Engine.table) ->
             ta.Rpi_sim.Engine.best = tb.Rpi_sim.Engine.best
             && ta.Rpi_sim.Engine.candidates = tb.Rpi_sim.Engine.candidates)
           x.Rpi_sim.Engine.tables y.Rpi_sim.Engine.tables)
    xs ys

let batch_network s st =
  Rpi_sim.Engine.prepare
    ~graph:(Rpi_sim.Engine.state_graph st)
    ~import:(Scenario.import_of s)
    ~transit_scope:(Scenario.transit_scope_of s)
    ~lp_overrides:(Scenario.lp_override_quads s)
    ()

let bench_churn ?(epochs = 1000) ?(verify_every = 100) () =
  let module Engine = Rpi_sim.Engine in
  let module Churn = Rpi_topo.Churn in
  print_endline "==============================================================";
  Printf.printf " Incremental repropagation vs per-epoch batch (%d epochs)\n" epochs;
  print_endline "==============================================================";
  let s, atoms, stream = churn_world ~epochs in
  let atom_of id = List.find (fun (a : Rpi_sim.Atom.t) -> a.Rpi_sim.Atom.id = id) atoms in
  let net = s.Scenario.network in
  let retain = s.Scenario.retain in
  let st = Engine.init_state net in
  let (_ : Engine.state) =
    Engine.repropagate net st (List.map (fun a -> Engine.Delta.Announce a) atoms)
  in
  let inc_s = ref 0.0 and batch_s = ref 0.0 in
  let n_events = ref 0 and verified = ref 0 and mismatches = ref 0 in
  List.iter
    (fun (ep : Churn.epoch) ->
      let deltas = List.map (Engine.Delta.of_event ~atom_of) ep.Churn.events in
      n_events := !n_events + List.length deltas;
      let t0 = Unix.gettimeofday () in
      let (_ : Engine.state) = Engine.repropagate net st deltas in
      inc_s := !inc_s +. (Unix.gettimeofday () -. t0);
      (* The effective graph is shared state both sides would maintain
         either way; only the rebuild + full re-solve is the batch cost. *)
      let t0 = Unix.gettimeofday () in
      let net' = batch_network s st in
      let batch = Engine.propagate_all net' ~retain (Engine.state_atoms st) in
      batch_s := !batch_s +. (Unix.gettimeofday () -. t0);
      if (ep.Churn.index + 1) mod verify_every = 0 then begin
        incr verified;
        if not (churn_results_equal (Engine.state_results st ~retain) batch) then
          incr mismatches
      end)
    stream;
  let identical = !mismatches = 0 in
  let eps secs = if secs > 0.0 then float_of_int epochs /. secs else Float.nan in
  let speedup = if !inc_s > 0.0 then !batch_s /. !inc_s else Float.nan in
  Printf.printf "churn events:        %8d over %d epochs\n" !n_events epochs;
  Printf.printf "incremental:         %8.3f s  (%.0f epochs/s)\n" !inc_s (eps !inc_s);
  Printf.printf "per-epoch batch:     %8.3f s  (%.0f epochs/s)\n" !batch_s (eps !batch_s);
  Printf.printf "speedup:             %8.2fx\n" speedup;
  Printf.printf "outputs byte-identical at %d checkpoints: %b\n" !verified identical;
  Rpi_json.Obj
    [
      ("epochs", Rpi_json.Int epochs);
      ("events", Rpi_json.Int !n_events);
      ("incremental_s", Rpi_json.Float !inc_s);
      ("batch_s", Rpi_json.Float !batch_s);
      ("incremental_eps", Rpi_json.Float (eps !inc_s));
      ("batch_eps", Rpi_json.Float (eps !batch_s));
      ("speedup", Rpi_json.Float speedup);
      ("verified_epochs", Rpi_json.Int !verified);
      ("identical_output", Rpi_json.Bool identical);
    ]

(* --churn-selftest: a long differential soak.  5000 epochs of churn
   through the incremental engine, cross-checked against a fresh batch
   solve every [verify_every] epochs; exits nonzero on the first
   divergence.  Wired into the @soak alias. *)
let churn_selftest ?(epochs = 5000) ?(verify_every = 100) () =
  let module Engine = Rpi_sim.Engine in
  let module Churn = Rpi_topo.Churn in
  let s, atoms, stream = churn_world ~epochs in
  let atom_of id = List.find (fun (a : Rpi_sim.Atom.t) -> a.Rpi_sim.Atom.id = id) atoms in
  let net = s.Scenario.network in
  let retain = s.Scenario.retain in
  let st = Engine.init_state net in
  let (_ : Engine.state) =
    Engine.repropagate net st (List.map (fun a -> Engine.Delta.Announce a) atoms)
  in
  let verified = ref 0 in
  let failed = ref false in
  List.iter
    (fun (ep : Churn.epoch) ->
      let deltas = List.map (Engine.Delta.of_event ~atom_of) ep.Churn.events in
      let (_ : Engine.state) = Engine.repropagate net st deltas in
      if (not !failed) && (ep.Churn.index + 1) mod verify_every = 0 then begin
        incr verified;
        let net' = batch_network s st in
        let batch = Engine.propagate_all net' ~retain (Engine.state_atoms st) in
        let inc = Engine.state_results st ~retain in
        if not (churn_results_equal inc batch) then begin
          failed := true;
          Printf.eprintf
            "churn-selftest: incremental state diverged from batch at epoch %d\n"
            ep.Churn.index;
          List.iter2
            (fun (x : Engine.result) (y : Engine.result) ->
              if x.Engine.converged <> y.Engine.converged then
                Printf.eprintf "  atom %d: converged %b (inc) vs %b (batch)\n"
                  x.Engine.atom.Rpi_sim.Atom.id x.Engine.converged y.Engine.converged;
              Asn.Map.iter
                (fun a (tx : Engine.table) ->
                  match Asn.Map.find_opt a y.Engine.tables with
                  | Some ty
                    when tx.Engine.best = ty.Engine.best
                         && tx.Engine.candidates = ty.Engine.candidates ->
                      ()
                  | _ ->
                      Printf.eprintf "  atom %d: tables differ at AS%d\n"
                        x.Engine.atom.Rpi_sim.Atom.id (Asn.to_int a))
                x.Engine.tables)
            inc batch
        end
      end)
    stream;
  if !failed then exit 1
  else
    Printf.printf
      "churn-selftest: %d epochs, incremental == batch at all %d checkpoints\n"
      epochs !verified

(* --- Part 2.58: the serving core under load --- *)

(* A p50/p99 load generator against the event-loop server: the replay
   world is stepped to a steady state, served over a unix socket, and
   hammered with a seeded verb mix (70% per-prefix sa-status, 15% whole-
   vantage sa-status, 10% import-pref, 5% stats).  Three phases:

   - "query": fresh connection per request (bgptool's shape) — client-
     side latency percentiles and throughput;
   - "mixed": the same mix while a feeder domain keeps stepping replay
     epochs and publishing snapshots — serving latency under ingest;
   - "pipelined": one connection, depth-64 request windows, byte-
     compared against the connection-per-request responses and timed
     against them — the multiplexer's value in one ratio.

   Plus the shed check: a server capped at 4 connections faced with 8
   held-open clients must shed exactly 4 with the overloaded frame.
   Protocol errors anywhere are counted and must be zero. *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let serve_socket_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rpibench-%s-%d.sock" tag (Unix.getpid ()))

let serve_request_mix ~rng ~vantages ~prefixes n =
  List.init n (fun _ ->
      let v = Prng.choice_list rng vantages in
      let r = Prng.float rng 1.0 in
      if r < 0.70 then
        Protocol.Sa_status
          { asn = v; prefix = Some (Prng.choice_list rng prefixes) }
      else if r < 0.85 then Protocol.Sa_status { asn = v; prefix = None }
      else if r < 0.95 then Protocol.Import_pref v
      else Protocol.Stats)

(* A snapshot-lookup-only mix for the pipelined-vs-serial phase: every
   verb below answers from a pre-rendered snapshot field, so the server
   does near-zero per-request work and the comparison isolates what the
   phase is about — transport cost (connect/accept and per-request
   round trips vs one deep window).  The per-prefix classification verb
   stays in the latency mixes above, where server-side work is the
   point. *)
let serve_transport_mix ~rng ~vantages n =
  List.init n (fun _ ->
      let v = Prng.choice_list rng vantages in
      let r = Prng.float rng 1.0 in
      if r < 0.45 then Protocol.Sa_status { asn = v; prefix = None }
      else if r < 0.80 then Protocol.Import_pref v
      else Protocol.Stats)

(* A bulk-reading frame client: reads 64 KiB chunks into a growable
   buffer and hands them to the incremental decoder — the same wire
   discipline the event loop itself uses.  Returns raw frame bodies, so
   the serial/pipelined comparison is on exact wire bytes with no
   client-side JSON cost in the timed path. *)
(* One client, one connection, one domain: the cursors mutate in place
   by design and are never shared. *)
type frame_client = {
  fc_fd : Unix.file_descr;
  (* rpilint: allow mutable-toplevel *)
  mutable fc_buf : Bytes.t;
  mutable fc_pos : int;
  mutable fc_len : int;
}

exception Client_dead of string

let frame_client fd = { fc_fd = fd; fc_buf = Bytes.create 65536; fc_pos = 0; fc_len = 0 }

let client_write_all c text =
  let total = String.length text in
  let off = ref 0 in
  while !off < total do
    off := !off + Unix.write_substring c.fc_fd text !off (total - !off)
  done

let rec client_read_frame c =
  match Protocol.decode c.fc_buf ~pos:c.fc_pos ~len:(c.fc_len - c.fc_pos) with
  | `Frame (body, used) ->
      c.fc_pos <- c.fc_pos + used;
      if c.fc_pos = c.fc_len then begin
        c.fc_pos <- 0;
        c.fc_len <- 0
      end;
      body
  | `Bad e -> raise (Client_dead e)
  | `Need_more ->
      if c.fc_pos > 0 then begin
        Bytes.blit c.fc_buf c.fc_pos c.fc_buf 0 (c.fc_len - c.fc_pos);
        c.fc_len <- c.fc_len - c.fc_pos;
        c.fc_pos <- 0
      end;
      if c.fc_len = Bytes.length c.fc_buf then begin
        let bigger = Bytes.create (2 * Bytes.length c.fc_buf) in
        Bytes.blit c.fc_buf 0 bigger 0 c.fc_len;
        c.fc_buf <- bigger
      end;
      let n = Unix.read c.fc_fd c.fc_buf c.fc_len (Bytes.length c.fc_buf - c.fc_len) in
      if n = 0 then raise (Client_dead "early EOF")
      else begin
        c.fc_len <- c.fc_len + n;
        client_read_frame c
      end

let frame_of_request r =
  Protocol.frame_of_body (Rpi_json.to_string (Protocol.request_to_json r))

(* One connection per request, like the CLI: per-request latencies (us),
   raw response bodies, protocol error count. *)
let serve_serial address requests =
  let errors = ref 0 in
  let lats = Array.make (List.length requests) 0.0 in
  let responses =
    List.mapi
      (fun i r ->
        let t0 = Unix.gettimeofday () in
        let fd = Server.connect address in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let c = frame_client fd in
            match
              client_write_all c (frame_of_request r);
              client_read_frame c
            with
            | body ->
                lats.(i) <- 1e6 *. (Unix.gettimeofday () -. t0);
                body
            | exception Client_dead e ->
                incr errors;
                "ERROR: " ^ e))
      requests
  in
  (lats, responses, !errors)

(* One connection for everything, [depth] requests in flight per window
   — bounded so neither side's socket buffer can fill and deadlock. *)
let serve_pipelined ?(depth = 64) address requests =
  let errors = ref 0 in
  let responses = ref [] in
  let fd = Server.connect address in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let c = frame_client fd in
      let rec window = function
        | [] -> ()
        | reqs ->
            let rec take n acc = function
              | r :: tl when n > 0 -> take (n - 1) (r :: acc) tl
              | tl -> (List.rev acc, tl)
            in
            let batch, rest = take depth [] reqs in
            let out = Buffer.create 4096 in
            List.iter (fun r -> Buffer.add_string out (frame_of_request r)) batch;
            client_write_all c (Buffer.contents out);
            List.iter
              (fun _ -> responses := client_read_frame c :: !responses)
              batch;
            window rest
      in
      (try window requests
       with Client_dead e ->
         incr errors;
         responses := ("ERROR: " ^ e) :: !responses));
  (List.rev !responses, !errors)

(* Exact shedding: 8 clients against a 4-connection server; returns
   (overloaded frames seen, protocol errors). *)
let serve_shed_check registry =
  let address = Server.Unix_socket (serve_socket_path "shed") in
  let config = { Eventloop.default_config with max_connections = 4 } in
  let server = Server.create ~address ~config registry in
  let dom = Domain.spawn (fun () -> Server.serve ~jobs:1 server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join dom;
      Server.close server)
    (fun () ->
      let fds = List.init 8 (fun _ -> Server.connect address) in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close fds)
        (fun () ->
          List.iter
            (fun fd ->
              (* A shed connection may already be closed server-side;
                 its overloaded frame is still queued for reading, so
                 the write's EPIPE is benign. *)
              try Protocol.write_json fd (Protocol.request_to_json Protocol.Stats)
              with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())
            fds;
          List.fold_left
            (fun (shed, errs) fd ->
              match Protocol.read_json fd with
              | Ok (Some json) when Protocol.is_overloaded json ->
                  (shed + 1, errs)
              | Ok (Some _) -> (shed, errs)
              | Ok None | Error _ -> (shed, errs + 1))
            (0, 0) fds))

let bench_serve ?(requests = 600) ?(epochs = 40) ?(presteps = 20) () =
  print_endline "==============================================================";
  Printf.printf " Serving core under load (%d requests per mix)\n" requests;
  print_endline "==============================================================";
  let plan = Replay.plan ~epochs () in
  let registry = Replay.registry plan in
  let stepped = ref 0 in
  while !stepped < presteps && Replay.step plan do
    incr stepped
  done;
  let prefixes = Rib.prefixes (IState.rib registry.Registry.collector) in
  let vantages = List.map fst registry.Registry.vantages in
  let rng = Prng.create ~seed:42 in
  let address = Server.Unix_socket (serve_socket_path "serve") in
  let server = Server.create ~address registry in
  let dom = Domain.spawn (fun () -> Server.serve ~jobs:2 server) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Domain.join dom;
      Server.close server)
    (fun () ->
      (* Every timed phase is best-of-3: on a 1-vCPU container the
         scheduler can steal milliseconds from any single run, and the
         regression gate compares ratios — the minimum is the stable
         statistic.  Errors accumulate across all repeats. *)
      let repeats = 3 in
      let run_mix name reqs =
        let best = ref None in
        let errs_total = ref 0 in
        for _ = 1 to repeats do
          let t0 = Unix.gettimeofday () in
          let lats, _responses, errs = serve_serial address reqs in
          let total = Unix.gettimeofday () -. t0 in
          errs_total := !errs_total + errs;
          Array.sort Float.compare lats;
          let p50 = percentile lats 0.50 and p99 = percentile lats 0.99 in
          let rps = float_of_int (List.length reqs) /. total in
          match !best with
          | Some (_, best_p99, _) when best_p99 <= p99 -> ()
          | _ -> best := Some (p50, p99, rps)
        done;
        let p50, p99, rps = Option.get !best in
        Printf.printf
          "%-12s p50 %8.1f us   p99 %8.1f us   %8.0f req/s   %d errors\n" name
          p50 p99 rps !errs_total;
        (p50, p99, rps, !errs_total)
      in
      let reqs_query = serve_request_mix ~rng ~vantages ~prefixes requests in
      let q50, q99, qrps, qerrs = run_mix "query" reqs_query in
      (* The mixed phase keeps a feeder domain applying updates and
         publishing snapshots for its whole duration: first the replay
         plan's remaining epochs, then — so load survives best-of-3
         repeats — a withdraw/announce flap of a real collector route,
         restored in full cycles so the final state is byte-stable. *)
      let feeder_stop = Atomic.make false in
      let feeder =
        Domain.spawn (fun () ->
            let collector = registry.Registry.collector in
            let flap =
              match prefixes with
              | [] -> None
              | p :: _ -> begin
                  match Rib.best (IState.rib collector) p with
                  | Some r -> begin
                      match r.Rpi_bgp.Route.peer_as with
                      | Some peer -> Some (p, r, peer)
                      | None -> None
                    end
                  | None -> None
                end
            in
            while not (Atomic.get feeder_stop) do
              if not (Replay.step plan) then begin
                match flap with
                | None -> Domain.cpu_relax ()
                | Some (p, r, peer) ->
                    IState.apply collector
                      (Update.withdraw ~from_as:peer ~to_as:Replay.collector_label p);
                    Registry.publish registry;
                    IState.apply collector
                      (Update.announce ~from_as:peer ~to_as:Replay.collector_label r);
                    Registry.publish registry
              end
            done)
      in
      let reqs_mixed = serve_request_mix ~rng ~vantages ~prefixes requests in
      let m50, m99, mrps, merrs = run_mix "mixed" reqs_mixed in
      Atomic.set feeder_stop true;
      Domain.join feeder;
      Registry.publish registry;
      (* Pipelined vs connection-per-request, same list, steady state. *)
      let reqs_pipe = serve_transport_mix ~rng ~vantages requests in
      let best_timed errs_total f =
        let best = ref None in
        for _ = 1 to repeats do
          let t0 = Unix.gettimeofday () in
          let responses, errs = f () in
          let dt = Unix.gettimeofday () -. t0 in
          errs_total := !errs_total + errs;
          match !best with
          | Some (best_dt, _) when best_dt <= dt -> ()
          | _ -> best := Some (dt, responses)
        done;
        Option.get !best
      in
      let serr = ref 0 and perr = ref 0 in
      let serial_s, serial_responses =
        best_timed serr (fun () ->
            let _, responses, errs = serve_serial address reqs_pipe in
            (responses, errs))
      in
      let pipelined_s, pipe_responses =
        best_timed perr (fun () -> serve_pipelined address reqs_pipe)
      in
      let serr = !serr and perr = !perr in
      let identical = List.equal String.equal serial_responses pipe_responses in
      let us_per n secs = 1e6 *. secs /. float_of_int n in
      let speedup = if pipelined_s > 0.0 then serial_s /. pipelined_s else Float.nan in
      Printf.printf
        "pipelined    %8.2f us/req vs %8.2f us/req serial  (%.2fx, identical %b)\n"
        (us_per requests pipelined_s) (us_per requests serial_s) speedup identical;
            let shed_observed, shed_errs = serve_shed_check registry in
      Printf.printf "shed         %d of 8 connections shed (expected 4)\n" shed_observed;
      let protocol_errors = qerrs + merrs + serr + perr + shed_errs in
      Printf.printf "protocol errors: %d\n" protocol_errors;
      Rpi_json.Obj
        [
          ("requests_per_mix", Rpi_json.Int requests);
          ( "query",
            Rpi_json.Obj
              [
                ("p50_us", Rpi_json.Float q50);
                ("p99_us", Rpi_json.Float q99);
                ("throughput_rps", Rpi_json.Float qrps);
              ] );
          ( "mixed",
            Rpi_json.Obj
              [
                ("p50_us", Rpi_json.Float m50);
                ("p99_us", Rpi_json.Float m99);
                ("throughput_rps", Rpi_json.Float mrps);
              ] );
          ( "pipelined",
            Rpi_json.Obj
              [
                ("depth", Rpi_json.Int 64);
                ("us_per_req", Rpi_json.Float (us_per requests pipelined_s));
                ("serial_us_per_req", Rpi_json.Float (us_per requests serial_s));
                ("speedup", Rpi_json.Float speedup);
                ("identical_output", Rpi_json.Bool identical);
              ] );
          ( "shed",
            Rpi_json.Obj
              [
                ("expected", Rpi_json.Int 4);
                ("observed", Rpi_json.Int shed_observed);
              ] );
          ("protocol_errors", Rpi_json.Int protocol_errors);
        ])

(* --serve-selftest: the load generator as a pass/fail soak.  Zero
   protocol errors, byte-identical pipelined responses, exact shedding,
   and an absolute p99 ceiling — generous enough for a noisy 1-vCPU
   container, tight enough to catch a stalled loop. *)
let serve_selftest ?(requests = 2000) () =
  let p99_floor_us = 250_000.0 in
  let doc = bench_serve ~requests () in
  let member k = function
    | Rpi_json.Obj fields -> List.assoc_opt k fields
    | _ -> None
  in
  let num path =
    let v =
      List.fold_left (fun acc k -> Option.bind acc (member k)) (Some doc) path
    in
    match v with
    | Some (Rpi_json.Float f) -> f
    | Some (Rpi_json.Int i) -> float_of_int i
    | _ -> Float.nan
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if num [ "protocol_errors" ] <> 0.0 then
    fail "%.0f protocol errors (expected 0)" (num [ "protocol_errors" ]);
  (match
     List.fold_left
       (fun acc k -> Option.bind acc (member k))
       (Some doc)
       [ "pipelined"; "identical_output" ]
   with
  | Some (Rpi_json.Bool true) -> ()
  | _ -> fail "pipelined responses are not byte-identical to serial");
  if num [ "shed"; "observed" ] <> num [ "shed"; "expected" ] then
    fail "shed %.0f connections, expected %.0f"
      (num [ "shed"; "observed" ])
      (num [ "shed"; "expected" ]);
  List.iter
    (fun mix ->
      let p99 = num [ mix; "p99_us" ] in
      if not (p99 < p99_floor_us) then
        fail "%s p99 %.0f us breaches the %.0f us ceiling" mix p99 p99_floor_us)
    [ "query"; "mixed" ];
  match List.rev !failures with
  | [] ->
      Printf.printf "serve-selftest: %d requests per mix, all invariants hold\n"
        requests
  | fs ->
      List.iter (Printf.eprintf "serve-selftest: %s\n") fs;
      exit 1

(* --- Part 2.6: one full lint pass, timed --- *)

(* What the @lint alias costs: the same Rpi_lint.Pass over the same
   roots with the same baseline — every rule over every loadable .cmt
   (unused-export reading the caller roots' units too).  Recorded as the
   "lint" object so check_regression can fail the build when the pass
   slows down by more than 2x (the lint/ keys carry their own threshold —
   linting is cheap and jittery, so the default 50% wall tolerance would
   cry wolf).  A lint.allow that does not load stops the run with its
   error: an empty baseline would time a pass that reports the
   allowlisted findings.  The tree ships lint-clean, so a finding means
   the pass ran on missing artifacts (outside a built checkout every
   source is a cmt-error; after a plain `dune build`, executables' main
   modules have no .cmt, so they are cmt-errors and unused-export reports
   false findings) and timed a different pass: the run stops before
   recording the key. *)
let bench_lint () =
  let roots = List.filter Sys.file_exists Rpi_lint.Pass.default_roots in
  let baseline =
    match Rpi_lint.Baseline.load "lint.allow" with
    | Ok b -> b
    | Error e ->
        Printf.eprintf "bench: lint.allow: %s\n" e;
        exit 1
  in
  let rules = List.map (fun (r : Rpi_lint.Rule.t) -> r.Rpi_lint.Rule.id) Rpi_lint.Rule.all in
  let t0 = Unix.gettimeofday () in
  let findings, timing = Rpi_lint.Pass.run ~rules ~baseline roots in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "lint: %d source files + %d cmt units in %.3f s (%d finding(s))\n"
    timing.Rpi_lint.Pass.files timing.Rpi_lint.Pass.cmt_units wall
    (List.length findings);
  if findings <> [] then begin
    Printf.eprintf
      "bench: the lint pass reported %d finding(s) on a tree that ships lint-clean, so \
       its build artifacts are incomplete; run `dune build @lint` first\n"
      (List.length findings);
    exit 1
  end;
  Rpi_json.Obj
    [
      ("wall_s", Rpi_json.Float wall);
      ("files", Rpi_json.Int timing.Rpi_lint.Pass.files);
      ("cmt_units", Rpi_json.Int timing.Rpi_lint.Pass.cmt_units);
    ]

(* --- Part 2.7: paper-scale propagation --- *)

(* High-water-mark resident set, in KiB, from /proc/self/status (0 where
   the file or the VmHWM line is unavailable — portability over
   precision; the regression gate never watches this key). *)
let peak_rss_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some line ->
              if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:" then
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
              else go ()
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | Failure _ -> 0

(* One scale tier: generate a heavy-tailed n-AS topology, freeze it into
   the engine's CSR, propagate a 16-atom batch sequentially (the
   ns/AS-atom figure and the prepare-vs-propagate split), stream the
   collector extraction through [iter_propagated] (one live result at a
   time), then fan the same batch out over the domain pool for the
   sharded speedup. *)
let bench_scale_tier ~n =
  let module Gen = Rpi_topo.Gen in
  let module Engine = Rpi_sim.Engine in
  let module As_graph = Rpi_topo.As_graph in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t0, v)
  in
  let config = Gen.scale_config ~n in
  let generate_s, topo = timed (fun () -> Gen.generate ~config (Prng.create ~seed:11)) in
  let graph = topo.Gen.graph in
  let n_ases = As_graph.as_count graph and edges = As_graph.edge_count graph in
  let prepare_s, network =
    timed (fun () ->
        Engine.prepare ~graph ~import:(fun _ -> Rpi_sim.Policy.default_import) ())
  in
  let stubs = Array.of_list topo.Gen.stubs in
  let n_atoms = 16 in
  let atoms =
    List.init n_atoms (fun i ->
        let origin = stubs.(i * Array.length stubs / n_atoms) in
        let prefix = Prefix.make (Rpi_net.Ipv4.of_octets 10 (i lsr 8) (i land 0xFF) 0) 24 in
        Rpi_sim.Atom.vanilla ~id:i ~origin [ prefix ])
  in
  let retain = Asn.Set.of_list topo.Gen.tier1 in
  let propagate_s, (_ : Engine.result list) =
    timed (fun () -> Engine.propagate_all network ~retain ~jobs:1 atoms)
  in
  let stream_s, collector =
    timed (fun () ->
        let rib = ref Rib.empty in
        Engine.iter_propagated network ~retain atoms ~f:(fun r ->
            rib := Rpi_sim.Vantage.extend_collector_rib ~peers:topo.Gen.tier1 !rib [ r ]);
        !rib)
  in
  let jobs = max 2 (Rpi_pool.Jobs.default ()) in
  let sharded_s, (_ : Engine.result list) =
    timed (fun () -> Engine.propagate_all network ~retain ~jobs atoms)
  in
  let ns_per_as_atom = propagate_s *. 1e9 /. float_of_int (n_ases * n_atoms) in
  let speedup = if sharded_s > 0.0 then propagate_s /. sharded_s else Float.nan in
  Printf.printf
    "n=%-6d  %7d edges  gen %6.3f s  prepare %6.3f s  propagate %6.3f s \
     (%5.1f ns/AS-atom)  sharded %6.3f s (%.2fx, %d jobs)  rss %d KiB\n%!"
    n_ases edges generate_s prepare_s propagate_s ns_per_as_atom sharded_s speedup
    jobs (peak_rss_kb ());
  Rpi_json.Obj
    [
      ("n_ases", Rpi_json.Int n_ases);
      ("edges", Rpi_json.Int edges);
      ("atoms", Rpi_json.Int n_atoms);
      ("generate_s", Rpi_json.Float generate_s);
      ("prepare_s", Rpi_json.Float prepare_s);
      ("propagate_s", Rpi_json.Float propagate_s);
      ("ns_per_as_atom", Rpi_json.Float ns_per_as_atom);
      ("stream_extract_s", Rpi_json.Float stream_s);
      ("collector_prefixes", Rpi_json.Int (List.length (Rib.prefixes collector)));
      ("sharded_s", Rpi_json.Float sharded_s);
      ("speedup", Rpi_json.Float speedup);
      ("parallel_jobs", Rpi_json.Int jobs);
      ("peak_rss_kb", Rpi_json.Int (peak_rss_kb ()));
    ]

let bench_scale ~n =
  print_endline "==============================================================";
  print_endline " Paper-scale propagation (CSR engine, heavy-tailed topologies)";
  print_endline "==============================================================";
  Rpi_json.Obj [ ("n" ^ string_of_int n, bench_scale_tier ~n) ]

(* The full run's scale tiers, each in a fresh child process — this
   executable's [--scale N] path, run in a scratch directory whose
   BENCH_results.json is then read back — so each tier's peak_rss_kb
   (the process-lifetime VmHWM) is that tier's own, not the high-water
   mark of the whole catalogue that ran before it. *)
let bench_scale_tiers tiers =
  let tier n =
    let key = "n" ^ string_of_int n in
    let dir = Filename.temp_dir "rpi-bench-scale" "" in
    let path = Filename.concat dir "BENCH_results.json" in
    let code, written =
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists path then Sys.remove path;
          Sys.rmdir dir)
        (fun () ->
          flush stdout;
          let code =
            Sys.command
              (Printf.sprintf "cd %s && %s --scale %d" (Filename.quote dir)
                 (Filename.quote Sys.executable_name) n)
          in
          if code <> 0 then (code, None)
          else
            match Rpi_json.of_string (In_channel.with_open_bin path In_channel.input_all) with
            | Ok (Rpi_json.Obj fields) -> (
                match List.assoc_opt "scale" fields with
                | Some (Rpi_json.Obj tiers) -> (code, List.assoc_opt key tiers)
                | Some _ | None -> (code, None))
            | Ok _ | Error _ -> (code, None))
    in
    match written with
    | Some json -> (key, json)
    | None ->
        Printf.eprintf "bench: scale tier %d failed in its child process (exit %d)\n" n code;
        exit 1
  in
  Rpi_json.Obj (List.map tier tiers)

(* Fan-out granularity: the same mid-size batch pushed through
   [propagate_all] at several batch sizes, sequential vs domain pool.
   Small batches used to be over-split (more chunks than atoms — all
   dispatch, no work); chunking is now capped at the batch size, and
   this records the observed speedup per batch size so the baseline
   shows where fan-out starts paying. *)
let bench_fanout () =
  let module Engine = Rpi_sim.Engine in
  print_endline "==============================================================";
  print_endline " propagate_all fan-out vs batch size";
  print_endline "==============================================================";
  let rng = Prng.create ~seed:23 in
  let topo =
    Rpi_topo.Gen.generate
      ~config:
        {
          Rpi_topo.Gen.default_config with
          Rpi_topo.Gen.n_tier1 = 6;
          n_tier2 = 24;
          n_tier3 = 80;
          n_stub = 200;
        }
      rng
  in
  let network =
    Engine.prepare ~graph:topo.Rpi_topo.Gen.graph
      ~import:(fun _ -> Rpi_sim.Policy.default_import)
      ()
  in
  let retain = Asn.Set.of_list topo.Rpi_topo.Gen.tier1 in
  let stubs = Array.of_list topo.Rpi_topo.Gen.stubs in
  let jobs = max 2 (Rpi_pool.Jobs.default ()) in
  let atom i =
    Rpi_sim.Atom.vanilla ~id:i
      ~origin:stubs.(i mod Array.length stubs)
      [ Prefix.of_string_exn "10.0.0.0/24" ]
  in
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      b := Float.min !b (Unix.gettimeofday () -. t0)
    done;
    !b
  in
  Rpi_json.Obj
    (List.map
       (fun m ->
         let atoms = List.init m atom in
         let seq_s =
           best (fun () -> ignore (Engine.propagate_all network ~retain ~jobs:1 atoms))
         in
         let par_s =
           best (fun () -> ignore (Engine.propagate_all network ~retain ~jobs atoms))
         in
         let speedup = if par_s > 0.0 then seq_s /. par_s else Float.nan in
         Printf.printf "batch %3d: seq %8.2f ms  pool %8.2f ms  (%.2fx, %d jobs)\n%!" m
           (1e3 *. seq_s) (1e3 *. par_s) speedup jobs;
         ( "batch" ^ string_of_int m,
           Rpi_json.Obj
             [
               ("atoms", Rpi_json.Int m);
               ("seq_s", Rpi_json.Float seq_s);
               ("par_s", Rpi_json.Float par_s);
               ("speedup", Rpi_json.Float speedup);
               ("parallel_jobs", Rpi_json.Int jobs);
             ] ))
       [ 1; 2; 4; 8; 32 ])

(* --- Part 3: machine-readable baseline --- *)

(* Host fingerprint: enough to tell whether two baselines are comparable
   at all.  Wall-clock keys drift across machines far more than the
   tolerance budget; check_regression prints a warning when fingerprints
   differ instead of crying regression. *)
let host_fingerprint () =
  Rpi_json.Obj
    [
      ("os_type", Rpi_json.String Sys.os_type);
      ("word_size", Rpi_json.Int Sys.word_size);
      ("ocaml_version", Rpi_json.String Sys.ocaml_version);
      ("domains", Rpi_json.Int (Domain.recommended_domain_count ()));
      ("backend", Rpi_json.String (if Sys.backend_type = Sys.Native then "native" else "bytecode"));
    ]

let write_doc ~path doc =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Rpi_json.to_channel oc doc);
  Printf.printf "\nWrote %s\n" path

let micro_json micro =
  Rpi_json.Obj (List.map (fun (name, ns) -> (name, Rpi_json.Float ns)) micro)

let write_results ~path ~seq ~par ~identical ~micro ~intern ~ingest_replay ~churn ~serve
    ~scale ~fanout ~lint =
  let timed_json (r : Runner.timed) =
    Rpi_json.Obj
      [
        ("id", Rpi_json.String r.Runner.outcome.Exp.id);
        ("elapsed_s", Rpi_json.Float r.Runner.elapsed_s);
      ]
  in
  let doc =
    Rpi_json.Obj
      [
        ("schema", Rpi_json.String "rpi-bench/1");
        ("mode", Rpi_json.String "full");
        ("host", host_fingerprint ());
        ( "run_all",
          Rpi_json.Obj
            [
              ("sequential_s", Rpi_json.Float seq.Runner.wall_clock_s);
              ("parallel_s", Rpi_json.Float par.Runner.wall_clock_s);
              ("parallel_jobs", Rpi_json.Int par.Runner.jobs);
              ("host_domains", Rpi_json.Int (Domain.recommended_domain_count ()));
              ( "speedup",
                Rpi_json.Float (seq.Runner.wall_clock_s /. par.Runner.wall_clock_s) );
              ("identical_output", Rpi_json.Bool identical);
              ( "schedule",
                Rpi_json.List
                  (List.map (fun id -> Rpi_json.String id) par.Runner.schedule) );
            ] );
        ( "experiments_sequential",
          Rpi_json.List (List.map timed_json seq.Runner.results) );
        ("ingest_replay", ingest_replay);
        ("churn", churn);
        ("serve", serve);
        ("scale", scale);
        ("fanout", fanout);
        ("path_intern", intern);
        ("microbench_ns_per_run", micro_json micro);
        ("lint", lint);
      ]
  in
  write_doc ~path doc

(* --scale N: one scale tier, merged into BENCH_results.json in place
   (read-modify-write on the "scale" member, tier keys replaced
   individually) so repeated runs at different N accumulate instead of
   clobbering the committed full baseline.  A missing or unparsable
   baseline degrades to a fresh scale-only document. *)
let run_scale_only ~n =
  let path = "BENCH_results.json" in
  let scale = bench_scale ~n in
  let base_fields =
    if Sys.file_exists path then begin
      match
        Rpi_json.of_string (String.trim (In_channel.with_open_bin path In_channel.input_all))
      with
      | Ok (Rpi_json.Obj fields) -> fields
      | Ok _ | Error _ ->
          Printf.eprintf "bench: %s is not a JSON object; rewriting scale-only\n" path;
          []
    end
    else
      [
        ("schema", Rpi_json.String "rpi-bench/1");
        ("mode", Rpi_json.String "scale");
        ("host", host_fingerprint ());
      ]
  in
  let fresh_tiers = match scale with Rpi_json.Obj t -> t | _ -> [] in
  let merged_scale =
    let old_tiers =
      match List.assoc_opt "scale" base_fields with
      | Some (Rpi_json.Obj t) -> t
      | Some _ | None -> []
    in
    let kept = List.filter (fun (k, _) -> not (List.mem_assoc k fresh_tiers)) old_tiers in
    Rpi_json.Obj (kept @ fresh_tiers)
  in
  let fields =
    if List.mem_assoc "scale" base_fields then
      List.map
        (fun (k, v) -> if String.equal k "scale" then (k, merged_scale) else (k, v))
        base_fields
    else base_fields @ [ ("scale", merged_scale) ]
  in
  write_doc ~path (Rpi_json.Obj fields)

let () =
  Logs.set_level (Some Logs.Warning);
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let churn_only = Array.exists (String.equal "--churn") Sys.argv in
  let churn_selftest_only = Array.exists (String.equal "--churn-selftest") Sys.argv in
  let serve_only = Array.exists (String.equal "--serve") Sys.argv in
  let serve_selftest_only = Array.exists (String.equal "--serve-selftest") Sys.argv in
  let scale_n =
    let n = Array.length Sys.argv in
    let rec find i =
      if i >= n then None
      else if String.equal Sys.argv.(i) "--scale" then
        if i + 1 < n then begin
          match int_of_string_opt Sys.argv.(i + 1) with
          | Some v when v >= 64 -> Some v
          | Some _ | None ->
              prerr_endline "bench: --scale expects an AS count of at least 64";
              exit 2
        end
        else begin
          prerr_endline "bench: --scale expects an AS count";
          exit 2
        end
      else find (i + 1)
    in
    find 1
  in
  match scale_n with
  | Some n -> run_scale_only ~n
  | None ->
  if serve_selftest_only then serve_selftest ()
  else if serve_only then begin
    (* --serve: the serving-core load generator alone, written to
       BENCH_serve.json so the committed full baseline is not clobbered;
       check_regression diffs on the intersection of keys. *)
    let serve = bench_serve () in
    write_doc ~path:"BENCH_serve.json"
      (Rpi_json.Obj
         [
           ("schema", Rpi_json.String "rpi-bench/1");
           ("mode", Rpi_json.String "serve");
           ("host", host_fingerprint ());
           ("serve", serve);
         ])
  end
  else if churn_selftest_only then churn_selftest ()
  else if churn_only then begin
    (* --churn: the repropagation differential bench alone, written to
       BENCH_churn.json so the committed full baseline is not clobbered;
       check_regression diffs on the intersection of keys. *)
    let churn = bench_churn () in
    write_doc ~path:"BENCH_churn.json"
      (Rpi_json.Obj
         [
           ("schema", Rpi_json.String "rpi-bench/1");
           ("mode", Rpi_json.String "churn");
           ("host", host_fingerprint ());
           ("churn", churn);
         ])
  end
  else if quick then begin
    (* --quick: the substrate microbenches only, on a reduced sampling
       quota — seconds, not minutes.  Skips the full-evaluation
       regeneration and the ingest replay, and writes BENCH_quick.json so
       the committed full baseline is never clobbered; check_regression
       diffs on the intersection of keys, so a quick run can still be
       compared against the full baseline. *)
    let small = small_ctx () in
    let micro = run_benchmarks ~quota:0.1 (substrate_tests small) in
    let intern = intern_hit_rate small in
    write_doc ~path:"BENCH_quick.json"
      (Rpi_json.Obj
         [
           ("schema", Rpi_json.String "rpi-bench/1");
           ("mode", Rpi_json.String "quick");
           ("path_intern", intern);
           ("microbench_ns_per_run", micro_json micro);
         ])
  end
  else begin
    let seq, par, identical = regenerate () in
    let ingest_replay = bench_ingest_replay ~epochs:31 in
    let churn = bench_churn () in
    let serve = bench_serve () in
    let scale = bench_scale_tiers [ 1000; 5000; 15000 ] in
    let fanout = bench_fanout () in
    (* The serve phase's feeder publishes pre-rendered snapshots in a
       tight loop; compact so the micro benches below are not billed
       for its garbage. *)
    Gc.compact ();
    let small = small_ctx () in
    let tests = experiment_tests small @ substrate_tests small in
    let micro = run_benchmarks tests in
    let intern = intern_hit_rate small in
    let lint = bench_lint () in
    write_results ~path:"BENCH_results.json" ~seq ~par ~identical ~micro ~intern
      ~ingest_replay ~churn ~serve ~scale ~fanout ~lint
  end
