(* Incremental re-convergence: a seeded churn stream applied epoch by
   epoch with Engine.repropagate on a 1k-AS world whose stable state is
   unique, cross-checked against a fresh batch solve at checkpoints. *)

module Asn = Rpi_bgp.Asn
module Scenario = Rpi_dataset.Scenario
module Engine = Rpi_sim.Engine
module Atom = Rpi_sim.Atom
module Churn = Rpi_topo.Churn
module M = Measure

(* As bench --churn: no atypical preferences or prefix overrides, so the
   stable state is unique and incremental must equal batch. *)
let config ~seed =
  {
    (Chain_workload.config ~seed) with
    Scenario.p_atypical_neighbor = 0.0;
    p_atypical_prefix = 0.0;
    p_prefix_override = 0.0;
  }

(* Every run times the same epochs of each world's stream, whatever the
   engine's speed: the stream drifts (a relationship migration relabels a
   link for good), so a time budget would hand faster code later epochs
   on a different topology.  Six worlds of 180 epochs give 1080 epochs, 10
   beyond the p99 rank; each world is checked against a batch solve after
   its last epoch. *)
let epochs_per_world = 180

let results_equal (xs : Engine.result list) ys =
  (* [steps] legitimately differs: the incremental solver accumulates
     worklist pops over an atom's lifetime. *)
  List.equal
    (fun (x : Engine.result) (y : Engine.result) ->
      x.Engine.converged = y.Engine.converged
      && Atom.equal x.Engine.atom y.Engine.atom
      && Asn.Map.equal
           (fun (a : Engine.table) (b : Engine.table) ->
             a.Engine.best = b.Engine.best && a.Engine.candidates = b.Engine.candidates)
           x.Engine.tables y.Engine.tables)
    xs ys

(* Engine reports a step-cap hit only as a warning; count them. *)
let warnings = ref 0

let install_warning_counter () =
  Logs.set_level (Some Logs.Warning);
  Logs.set_reporter
    {
      Logs.report =
        (fun _src level ~over k msgf ->
          if level = Logs.Warning || level = Logs.Error then incr warnings;
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.ikfprintf
                (fun _ ->
                  over ();
                  k ())
                Format.err_formatter fmt));
    }

let batch_check (s : Scenario.t) st =
  M.span "sim.batch_check" (fun () ->
      let net =
        Engine.prepare ~graph:(Engine.state_graph st) ~import:(Scenario.import_of s)
          ~transit_scope:(Scenario.transit_scope_of s)
          ~lp_overrides:(Scenario.lp_override_quads s) ()
      in
      let batch = Engine.propagate_all net ~retain:s.Scenario.retain ~jobs:1 (Engine.state_atoms st) in
      results_equal (Engine.state_results st ~retain:s.Scenario.retain) batch)

(* Worklist pops per atom, cheaply: no table is retained. *)
let pops st =
  let tbl = Hashtbl.create 2048 in
  List.iter
    (fun (r : Engine.result) -> Hashtbl.replace tbl r.Engine.atom.Atom.id r.Engine.steps)
    (Engine.state_results st ~retain:Asn.Set.empty);
  tbl

let epoch_pops ~before ~after =
  Hashtbl.fold
    (fun id n acc -> acc + n - Option.value ~default:0 (Hashtbl.find_opt before id))
    after 0

let is_link_event = function
  | Churn.Link_down _ | Churn.Link_up _ | Churn.Rel_change _ -> true
  | Churn.Withdraw _ | Churn.Announce _ -> false

let run ~seed ~seconds ~trace =
  install_warning_counter ();
  let worlds = Bench_common.worlds in
  (* [seconds] only caps a world's epochs, for a host far slower than
     the one the epoch count was chosen on. *)
  let cap = seconds in
  let setup_times = Array.make worlds 0.0 and setup_cpu = Array.make worlds 0.0 in
  let lat = ref [] and cpu = ref [] and traced_lat = ref [] and plain_lat = ref [] and steps = ref [] in
  let failed = ref 0 and checks = ref 0 and link_epochs = ref 0 and epochs = ref 0 in
  let loop_wall = ref 0.0 and peaks = ref [] in
  let host = Bench_common.host_start () in
  for k = 0 to worlds - 1 do
    let wseed = Bench_common.world_seed ~seed k in
    let s, st =
      Bench_common.build_world setup_times setup_cpu k ~trace (fun () ->
          let s = M.span "dataset.build" (fun () -> Scenario.build ~config:(config ~seed:wseed) ()) in
          let st = Engine.init_state s.Scenario.network in
          (* All atoms are announced in set-up. *)
          let st =
            Engine.repropagate s.Scenario.network st
              (List.map (fun a -> Engine.Delta.Announce a) s.Scenario.atoms)
          in
          (s, st))
    in
    let net = s.Scenario.network in
    let atoms = Hashtbl.create 2048 in
    List.iter (fun (a : Atom.t) -> Hashtbl.replace atoms a.Atom.id a) s.Scenario.atoms;
    let atom_of id = Hashtbl.find atoms id in
    let stream =
      Churn.generate (Rpi_prng.Prng.create ~seed:wseed) ~graph:s.Scenario.graph
        ~atom_ids:(List.map (fun (a : Atom.t) -> a.Atom.id) s.Scenario.atoms)
        ~epochs:epochs_per_world
    in
    Printf.printf "churn: world %d (seed %d): %d ASes, %d atoms announced\n%!" k wseed
      (Rpi_topo.As_graph.as_count s.Scenario.graph)
      (List.length s.Scenario.atoms);
    let peak = ref 0.0 in
    (* Checkpoints run outside the timed epochs and outside the peak. *)
    let checkpoint () =
      Bench_common.fold_peak peak;
      incr checks;
      M.set_enabled trace;
      let ok = batch_check s st in
      M.set_enabled false;
      if not ok then begin
        incr failed;
        Printf.printf "churn: checkpoint %d differs from the batch solve\n%!" !checks
      end;
      Bench_common.restart_peak ()
    in
    Bench_common.restart_peak ();
    let world_wall = ref 0.0 in
    let rec go i = function
      | [] -> i
      | _ when !world_wall >= cap -> i
      | (ep : Churn.epoch) :: rest ->
          (* Traced runs trace every other epoch, to measure the overhead,
             and count every epoch's worklist pops. *)
          let traced = trace && i mod 2 = 0 in
          if i mod 12 = 0 then Bench_common.calibrate ();
          let before = if trace then Some (pops st) else None in
          let warned = !warnings in
          M.set_enabled traced;
          M.set_op ((k * epochs_per_world) + i);
          let c0 = M.cpu_seconds () and t0 = M.now () in
          let deltas = List.map (Engine.Delta.of_event ~atom_of) ep.Churn.events in
          M.span "sim.repropagate" (fun () -> ignore (Engine.repropagate net st deltas : Engine.state));
          let dt = M.now () -. t0 in
          cpu := (M.cpu_seconds () -. c0) :: !cpu;
          M.set_enabled false;
          world_wall := !world_wall +. dt;
          if List.exists is_link_event ep.Churn.events then incr link_epochs;
          (* A non-converged atom fails its epoch. *)
          if !warnings > warned then begin
            incr failed;
            lat := infinity :: !lat
          end
          else lat := dt :: !lat;
          (match before with
          | Some before ->
              let p = epoch_pops ~before ~after:(pops st) in
              steps := float_of_int p :: !steps;
              (* Neighbouring epochs differ in work: compare time per pop. *)
              let per_pop = dt /. float_of_int (max 1 p) in
              if traced then traced_lat := per_pop :: !traced_lat
              else plain_lat := per_pop :: !plain_lat
          | None -> ());
          go (i + 1) rest
    in
    let links0 = !link_epochs in
    let n = go 0 stream in
    let wl = M.sorted (Array.of_list (List.filteri (fun i _ -> i < n) !lat)) in
    Printf.printf "churn: world %d: %d epochs, %.1f epochs/s, p50 %.2f ms, p99 %.2f ms, link share %.3f\n%!" k n
      (float_of_int n /. !world_wall)
      (1000.0 *. M.percentile wl ~permille:500)
      (1000.0 *. M.percentile wl ~permille:990)
      (float_of_int (!link_epochs - links0) /. float_of_int (max 1 n));
    checkpoint ();
    peaks := !peak :: !peaks;
    epochs := !epochs + n;
    loop_wall := !loop_wall +. !world_wall
  done;
  let epochs = !epochs in
  Printf.printf "churn: %d epochs in %.2f s, %d checkpoints\n" epochs !loop_wall !checks;
  let noise =
    Bench_common.host_noise host
      (("world_peaks_mb", Bench_common.float_list (Array.of_list (List.rev !peaks)))
      :: Bench_common.setup_noise ~wall:setup_times ~cpu:setup_cpu)
  in
  let n = Bench_common.metric in
  let lat = Array.of_list !lat in
  let e2e =
    Bench_common.e2e ~centre:M.median
      ~kernel:(Array.of_list !Bench_common.kernel_times)
      ~setup_cpu ~cpu:(Array.of_list !cpu) ~p50:lat ~lat ~top:990
      ~ops_per_s:(float_of_int epochs /. !loop_wall)
      ~peaks:!peaks
  in
  let per_layer =
    if not trace then []
    else
      let spans = M.spans () in
      let alloc =
        List.filter_map
          (fun (sp : M.span) ->
            if String.equal sp.M.name "sim.repropagate" then Some sp.M.alloc_words else None)
          spans
      in
      Bench_common.layer_metrics (M.layers spans)
      @ [
          n "sim.repropagate.steps" "count" (M.median (Array.of_list !steps)) (List.length !steps);
          n "sim.repropagate.alloc_words" "word" (M.median (Array.of_list alloc)) (List.length alloc);
          n "churn.link_epoch_share" "share"
            (float_of_int !link_epochs /. float_of_int (max 1 epochs))
            epochs;
          Bench_common.overhead_metric ~units:(M.median (Array.of_list !steps)) ~traced:!traced_lat
            ~plain:!plain_lat ();
        ]
  in
  { Bench_common.e2e; per_layer; attempted = epochs; failed = !failed; noise; spans = M.spans () }
