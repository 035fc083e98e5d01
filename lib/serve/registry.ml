module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module State = Rpi_ingest.State
module Render = Rpi_ingest.Render

type view = {
  v_graph : Rpi_topo.As_graph.t;
  v_rib : Rib.t;
  v_sa : Rpi_json.t;
  v_import : Rpi_json.t;
  (* The same two reports rendered to wire bytes at publish time, so
     the event loop's hot dispatch is a field read, not a JSON walk. *)
  v_sa_str : string;
  v_import_str : string;
}

type snapshot = {
  generation : int;
  stats : Rpi_json.t;
  stats_str : string;
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
   this cheap when nothing changed since the last refresh.  The rendered
   report objects are exactly what [respond] used to compute per request
   against the live state, so answers stay byte-identical — they just
   come from the last published generation instead of racing ingestion. *)
let build_snapshot ~generation collector vantages =
  let views =
    List.map
      (fun (asn, st) ->
        let v_sa = Render.sa ~viewpoint:"own-feed" (State.sa_report st) in
        let v_import = Render.import_pref (State.import_report st) in
        ( asn,
          {
            v_graph = State.graph st;
            v_rib = State.rib st;
            v_sa;
            v_import;
            v_sa_str = Rpi_json.to_string v_sa;
            v_import_str = Rpi_json.to_string v_import;
          } ))
      vantages
  in
  let stats = Render.stats_of_state collector in
  {
    generation;
    stats;
    stats_str = Rpi_json.to_string stats;
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

let current t = Atomic.get t.snap

let find_view snap asn =
  List.find_opt (fun (a, _) -> Asn.equal a asn) snap.views |> Option.map snd

let unknown_vantage asn =
  Protocol.error_response
    (Printf.sprintf "%s is not a served vantage" (Asn.to_label asn))

(* Answer from one atomically-loaded snapshot: every field read below
   comes from the same generation, so a response can never mix state
   from two epochs no matter how ingestion interleaves. *)
let respond_snapshot snap request =
  match request with
  | Protocol.Stats -> snap.stats
  | Protocol.Snapshot ->
      Rpi_json.Obj
        [
          ("format", Rpi_json.String "table_dump");
          ( "dump",
            Rpi_json.String
              (Rpi_mrt.Table_dump.rib_to_string
                 ~vantage_as:snap.collector_vantage snap.collector_rib) );
        ]
  | Protocol.Sa_status { asn; prefix } -> begin
      match find_view snap asn with
      | None -> unknown_vantage asn
      | Some view -> begin
          match prefix with
          | None -> view.v_sa
          | Some prefix ->
              Render.sa_status ~provider:asn ~prefix
                (Rpi_core.Export_infer.classify_prefix view.v_graph
                   ~provider:asn view.v_rib prefix)
        end
    end
  | Protocol.Import_pref asn -> begin
      match find_view snap asn with
      | None -> unknown_vantage asn
      | Some view -> view.v_import
    end
  | Protocol.Metrics ->
      (* The event loop intercepts [metrics] before dispatching here;
         answering it from the registry (e.g. in offline tests) reports
         that no loop is attached. *)
      Protocol.error_response "metrics are served by the event loop"

let respond t request = respond_snapshot (current t) request

(* Rendered dispatch for the event loop: snapshot-backed verbs answer
   with the string rendered once at publish time; everything else
   (per-prefix classification, unknown vantages, the table dump) is
   rendered on the fly from the same snapshot, so answers stay
   byte-identical either way.  The bool is [false] exactly when the
   response is an error object, sparing the loop a re-parse. *)
let render_fresh snap request =
  let doc = respond_snapshot snap request in
  let ok =
    match doc with Rpi_json.Obj (("error", _) :: _) -> false | _ -> true
  in
  (Rpi_json.to_string doc, ok)

let respond_rendered t request =
  let snap = current t in
  match request with
  | Protocol.Stats -> (snap.stats_str, true)
  | Protocol.Sa_status { asn; prefix = None } -> begin
      match find_view snap asn with
      | Some view -> (view.v_sa_str, true)
      | None -> render_fresh snap request
    end
  | Protocol.Import_pref asn -> begin
      match find_view snap asn with
      | Some view -> (view.v_import_str, true)
      | None -> render_fresh snap request
    end
  | _ -> render_fresh snap request
