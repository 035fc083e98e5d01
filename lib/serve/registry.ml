module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module State = Rpi_ingest.State
module Render = Rpi_ingest.Render

type view = {
  v_graph : Rpi_topo.As_graph.t;
  v_rib : Rib.t;
  (* The vantage's two reports, rendered to wire bytes at publish time,
     so the event loop's hot dispatch is a field read, not a JSON walk. *)
  v_sa : string;
  v_import : string;
}

type snapshot = {
  generation : int;
  stats : string;
  collector_vantage : Asn.t;
  collector_rib : Rib.t;
  views : (Asn.t * view) list;
}

type t = {
  collector : State.t;
  vantages : (Asn.t * State.t) list;
  snap : snapshot Atomic.t;
}

(* Build a fresh immutable snapshot from the live states.  Only the
   publisher takes the states' mutexes; the per-state report memos make
   this cheap when nothing changed since the last refresh.  Queries
   answer from the last published generation instead of racing
   ingestion. *)
let build_snapshot ~generation collector vantages =
  let views =
    List.map
      (fun (asn, st) ->
        ( asn,
          {
            v_graph = State.graph st;
            v_rib = State.rib st;
            v_sa = Rpi_json.to_string (Render.sa ~viewpoint:"own-feed" (State.sa_report st));
            v_import = Rpi_json.to_string (Render.import_pref (State.import_report st));
          } ))
      vantages
  in
  {
    generation;
    stats = Rpi_json.to_string (Render.stats_of_state collector);
    collector_vantage = State.vantage collector;
    collector_rib = State.rib collector;
    views;
  }

let publish t =
  let old = Atomic.get t.snap in
  Atomic.set t.snap
    (build_snapshot ~generation:(old.generation + 1) t.collector t.vantages)

let create ~collector ~vantages =
  {
    collector;
    vantages;
    snap = Atomic.make (build_snapshot ~generation:0 collector vantages);
  }

let find t asn =
  List.find_opt (fun (a, _) -> Asn.equal a asn) t.vantages |> Option.map snd

let error message = (Rpi_json.to_string (Protocol.error_response message), false)

(* [answer] the served vantage's view, or the unknown-vantage error. *)
let with_view snap asn answer =
  match List.find_opt (fun (a, _) -> Asn.equal a asn) snap.views with
  | Some (_, view) -> (answer view, true)
  | None -> error (Printf.sprintf "%s is not a served vantage" (Asn.to_label asn))

(* Answer from one atomically-loaded snapshot: every field read below
   comes from the same generation, so a response can never mix state
   from two epochs no matter how ingestion interleaves.  The reports
   rendered at publish time are returned as they are; the per-prefix
   classification and the table dump render on the fly. *)
let respond_rendered t request =
  let snap = Atomic.get t.snap in
  match request with
  | Protocol.Stats -> (snap.stats, true)
  | Protocol.Snapshot ->
      ( Rpi_json.to_string
          (Rpi_json.Obj
             [
               ("format", Rpi_json.String "table_dump");
               ( "dump",
                 Rpi_json.String
                   (Rpi_mrt.Table_dump.rib_to_string
                      ~vantage_as:snap.collector_vantage snap.collector_rib) );
             ]),
        true )
  | Protocol.Sa_status { asn; prefix = None } -> with_view snap asn (fun view -> view.v_sa)
  | Protocol.Sa_status { asn; prefix = Some prefix } ->
      with_view snap asn (fun view ->
          Rpi_json.to_string
            (Render.sa_status ~provider:asn ~prefix
               (Rpi_core.Export_infer.classify_prefix view.v_graph ~provider:asn
                  view.v_rib prefix)))
  | Protocol.Import_pref asn -> with_view snap asn (fun view -> view.v_import)
  | Protocol.Metrics ->
      (* The event loop intercepts [metrics] before dispatching here;
         answering it from the registry (e.g. in offline tests) reports
         that no loop is attached. *)
      error "metrics are served by the event loop"
