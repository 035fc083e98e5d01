module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Update = Rpi_bgp.Update
module Timeline = Rpi_sim.Timeline
module Vantage = Rpi_sim.Vantage
module Scenario = Rpi_dataset.Scenario
module Export_infer = Rpi_core.Export_infer
module Feed = Rpi_ingest.Feed
module State = Rpi_ingest.State
module Render = Rpi_ingest.Render

(* The collector state's vantage label.  AS0 never originates updates, so
   the {!Feed.apply} local-route convention (from_as = vantage) can never
   trigger for collector feeds. *)
let collector_label = Asn.of_int 0

type step = {
  index : int;
  collector_updates : Update.t list;
  vantage_updates : (Asn.t * Update.t list) list;
  expected_collector : Rib.t;
  expected_views : (Asn.t * Rib.t) list;
}

type t = {
  scenario : Scenario.t;
  vantages : Asn.t list;
  steps : step list;
  registry : Registry.t;
  position : int Atomic.t;
}

let default_vantages scenario =
  match scenario.Scenario.collector_peers with
  | a :: b :: _ -> [ a; b ]
  | peers -> peers

let plan ?(config = Scenario.small_config) ?(churn = Timeline.monthly_churn)
    ?vantages ~epochs () =
  let scenario = Scenario.build ~config () in
  let vantages =
    match vantages with Some vs -> vs | None -> default_vantages scenario
  in
  let rng = Rpi_prng.Prng.create ~seed:(config.Scenario.seed + epochs) in
  let timeline =
    Timeline.evolve rng ~graph:scenario.Scenario.graph ~churn ~epochs
      scenario.Scenario.atoms
  in
  (* The collector table follows the timeline through one watch, fed each
     epoch's announce/withdraw deltas (the first epoch's from an empty
     one).  It stays local: its state holds an arena per announced atom,
     which a plan has no use for once the steps are computed. *)
  let w =
    Vantage.watch ~decision:scenario.Scenario.decision scenario.Scenario.network
      (Vantage.Collector scenario.Scenario.collector_peers)
  in
  let _, _, _, rev_steps =
    List.fold_left
      (fun (prev_ep, prev_col, prev_views, acc) (ep : Timeline.epoch) ->
        Vantage.advance w (Timeline.deltas_between prev_ep ep);
        let col = Vantage.table w in
        let views =
          List.map
            (fun v -> (v, Export_infer.viewpoint_of_feed ~feed:v col))
            vantages
        in
        let collector_updates =
          Feed.diff ~vantage:collector_label ~old_rib:prev_col col
        in
        let vantage_updates =
          List.map2
            (fun (v, old_view) (_, new_view) ->
              (v, Feed.diff ~vantage:v ~old_rib:old_view new_view))
            prev_views views
        in
        ( ep,
          col,
          views,
          {
            index = ep.Timeline.index;
            collector_updates;
            vantage_updates;
            expected_collector = col;
            expected_views = views;
          }
          :: acc ))
      ( { Timeline.index = -1; atoms = [] },
        Rib.empty,
        List.map (fun v -> (v, Rib.empty)) vantages,
        [] )
      timeline
  in
  let graph = scenario.Scenario.graph in
  let registry =
    Registry.create
      ~collector:(State.create ~graph ~vantage:collector_label ())
      ~vantages:
        (List.map
           (fun v ->
             (v, State.create ~graph ~vantage:v ~origins:(State.Fixed []) ()))
           vantages)
  in
  { scenario; vantages; steps = List.rev rev_steps; registry; position = Atomic.make 0 }

let registry t = t.registry
let length t = List.length t.steps
let position t = Atomic.get t.position

(* Apply one epoch's update streams, then re-key every vantage state's
   origin universe to the collector's current origin groups (the batch
   experiments analyze against [origins_of_rib collector], so the live
   states must too).  Only the replay driver calls this — the server
   domains touch the states through their own internal locks. *)
let step t =
  match List.nth_opt t.steps (Atomic.get t.position) with
  | None -> false
  | Some s ->
      Atomic.incr t.position;
      State.apply_all t.registry.Registry.collector s.collector_updates;
      List.iter
        (fun (v, updates) ->
          match Registry.find t.registry v with
          | Some state -> State.apply_all state updates
          | None -> ())
        s.vantage_updates;
      let origins = State.origin_groups t.registry.Registry.collector in
      List.iter
        (fun (_, state) -> State.set_origins state (State.Fixed origins))
        t.registry.Registry.vantages;
      (* Make the epoch visible to the query path: one snapshot swap,
         after which every server answer comes from this generation. *)
      Registry.publish t.registry;
      true

(* Sleep in short slices so a drain request interrupts an epoch gap
   promptly. *)
let interruptible_sleep ~stop seconds =
  let slice = 0.05 in
  let rec go remaining =
    if remaining > 0.0 && not (stop ()) then begin
      Unix.sleepf (Float.min slice remaining);
      go (remaining -. slice)
    end
  in
  go seconds

let run ?(epoch_ms = 1000) ?(stop = fun () -> false) ?on_epoch t =
  let rec loop () =
    if not (stop ()) then begin
      if step t then begin
        (match on_epoch with Some f -> f (Atomic.get t.position - 1) | None -> ());
        interruptible_sleep ~stop (float_of_int epoch_ms /. 1000.0);
        loop ()
      end
    end
  in
  loop ()

(* --- selftest ------------------------------------------------------- *)

type selftest_report = { epochs_checked : int; comparisons : int }

(* Step through every epoch comparing the incremental states against a
   from-scratch batch recompute over the expected tables — tables by
   {!Rib.equal}, reports byte-for-byte through {!Rpi_json}.  Consumes the
   plan (must be at position 0); stops at the first mismatch. *)
let selftest t =
  if Atomic.get t.position <> 0 then invalid_arg "Replay.selftest: plan already stepped";
  let js = Rpi_json.to_string in
  let graph = t.scenario.Scenario.graph in
  let rec go comparisons =
    match List.nth_opt t.steps (Atomic.get t.position) with
    | None -> Ok { epochs_checked = Atomic.get t.position; comparisons }
    | Some s ->
        ignore (step t);
        let collector = t.registry.Registry.collector in
        let fail fmt =
          Printf.ksprintf
            (fun msg -> Error (Printf.sprintf "epoch %d: %s" s.index msg))
            fmt
        in
        if not (Rib.equal (State.rib collector) s.expected_collector) then
          fail "incremental collector table diverged from batch"
        else if
          not
            (String.equal
               (js (Render.stats_of_state collector))
               (js (Render.stats_of_rib s.expected_collector)))
        then fail "collector stats diverged from batch"
        else begin
          let origins = Export_infer.origins_of_rib s.expected_collector in
          let rec check_vantages comparisons = function
            | [] -> go comparisons
            | (v, expected_view) :: rest -> begin
                match Registry.find t.registry v with
                | None -> fail "vantage %s missing from registry" (Asn.to_label v)
                | Some state ->
                    if not (Rib.equal (State.rib state) expected_view) then
                      fail "vantage %s table diverged from batch" (Asn.to_label v)
                    else begin
                      let batch =
                        Export_infer.analyze graph ~provider:v ~origins
                          expected_view
                      in
                      let batch_json = js (Render.sa ~viewpoint:"own-feed" batch) in
                      let live_json =
                        js (Render.sa ~viewpoint:"own-feed" (State.sa_report state))
                      in
                      if not (String.equal batch_json live_json) then
                        fail "vantage %s sa report diverged from batch"
                          (Asn.to_label v)
                      else check_vantages (comparisons + 2) rest
                    end
              end
          in
          check_vantages (comparisons + 2) s.expected_views
        end
  in
  go 0
