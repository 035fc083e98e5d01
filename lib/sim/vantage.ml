module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module As_path = Rpi_bgp.As_path
module Community = Rpi_bgp.Community
module Ipv4 = Rpi_net.Ipv4
module Relationship = Rpi_topo.Relationship

let next_hop_of asn =
  let n = Asn.to_int asn land 0xFFFF in
  Ipv4.of_octets 10 (n lsr 8) (n land 0xFF) 1

let router_id_of asn ~router =
  let n = Asn.to_int asn land 0xFFFF in
  Ipv4.of_octets 172 (16 + (router land 0x0F)) (n lsr 8) (n land 0xFF)

let no_reexport_community ~origin = Community.make origin Policy.no_reexport_code

let communities_of policy ~origin (r : Engine.route) =
  let base =
    if r.Engine.no_up then Community.Set.singleton (no_reexport_community ~origin)
    else Community.Set.empty
  in
  match (policy.Policy.scheme, r.Engine.learned_from, r.Engine.rel) with
  | Some scheme, Some neighbor, Some rel -> begin
      match Policy.tag scheme ~self:policy.Policy.asn ~neighbor rel with
      | Some c -> Community.Set.add c base
      | None -> base
    end
  | (Some _ | None), _, _ -> base

let route_of_engine ~policy ~prefix ~origin ?(igp_metric = 0) (r : Engine.route) =
  match r.Engine.learned_from with
  | None ->
      Route.make ~prefix ~next_hop:(Ipv4.of_int32_exn 0) ~as_path:As_path.empty
        ~source:Route.Local ~origin:Route.Igp
        ~router_id:(router_id_of policy.Policy.asn ~router:0)
        ()
  | Some neighbor ->
      Route.make ~prefix ~next_hop:(next_hop_of neighbor)
        ~as_path:(As_path.of_list r.Engine.path) ~local_pref:r.Engine.lp
        ~communities:(communities_of policy ~origin r) ~source:Route.Ebgp
        ~igp_metric ~router_id:(next_hop_of neighbor) ~peer_as:neighbor ()

let extend_rib_at ~policy ~vantage rib results =
  List.fold_left
    (fun rib (result : Engine.result) ->
      match Asn.Map.find_opt vantage result.Engine.tables with
      | None -> rib
      | Some table ->
          let origin = result.Engine.atom.Atom.origin in
          List.fold_left
            (fun rib prefix ->
              List.fold_left
                (fun rib r -> Rib.add_route (route_of_engine ~policy ~prefix ~origin r) rib)
                rib table.Engine.candidates)
            rib result.Engine.atom.Atom.prefixes)
    rib results

let rib_at ~policy ~vantage results = extend_rib_at ~policy ~vantage Rib.empty results

let extend_collector_rib ~peers rib results =
  List.fold_left
    (fun rib (result : Engine.result) ->
      let origin = result.Engine.atom.Atom.origin in
      List.fold_left
        (fun rib peer ->
          match Engine.best_at result peer with
          | None -> rib
          | Some r ->
              let as_path = As_path.of_list (peer :: r.Engine.path) in
              let communities =
                if r.Engine.no_up then
                  Community.Set.singleton (no_reexport_community ~origin)
                else Community.Set.empty
              in
              List.fold_left
                (fun rib prefix ->
                  let route =
                    Route.make ~prefix ~next_hop:(next_hop_of peer) ~as_path ~communities
                      ~source:Route.Ebgp ~router_id:(next_hop_of peer) ~peer_as:peer ()
                  in
                  Rib.add_route route rib)
                rib result.Engine.atom.Atom.prefixes)
        rib peers)
    rib results

let collector_rib ~peers results = extend_collector_rib ~peers Rib.empty results

let router_views ~policy ~vantage ~routers results =
  if routers < 1 then invalid_arg "Vantage.router_views: need at least one router";
  (* A backbone router terminates the eBGP sessions of a subset of the
     AS's neighbours (deterministic by (neighbour, router)); routes from
     other sessions reach it over iBGP carrying the session router's
     assignment.  Per-router IGP metrics make routers pick different
     equally-preferred exits. *)
  let session_here ~router nb =
    let h = (Asn.to_int nb * 2654435761) lxor (router * 40503) in
    h land 0xFF < 160 (* ~62% of sessions visible per router *)
  in
  List.init routers (fun router ->
      List.fold_left
        (fun rib (result : Engine.result) ->
          match Asn.Map.find_opt vantage result.Engine.tables with
          | None -> rib
          | Some table ->
              let origin = result.Engine.atom.Atom.origin in
              let visible =
                List.filter
                  (fun (r : Engine.route) ->
                    match r.Engine.learned_from with
                    | None -> true
                    | Some nb -> session_here ~router nb)
                  table.Engine.candidates
              in
              (* Always keep the AS-level best (it reaches every router
                 over iBGP). *)
              let visible =
                match (table.Engine.best, visible) with
                | Some best, _ when not (List.memq best visible) -> best :: visible
                | _, _ -> visible
              in
              List.fold_left
                (fun rib prefix ->
                  List.fold_left
                    (fun rib (r : Engine.route) ->
                      let igp_metric =
                        match r.Engine.learned_from with
                        | None -> 0
                        | Some nb -> 1 + ((Asn.to_int nb * 31) + (router * 17)) mod 50
                      in
                      Rib.add_route
                        (route_of_engine ~policy ~prefix ~origin ~igp_metric r)
                        rib)
                    rib visible)
                rib result.Engine.atom.Atom.prefixes)
        Rib.empty results)

(* --- Watches ---
   Scenario prefixes are unique across atoms, so retiring a changed
   atom's prefixes and re-adding them from its new result leaves every
   other atom's routes alone, and re-adds each prefix's candidates in
   the order a batch build adds them. *)

type view =
  | Collector of Asn.t list
  | Looking_glass of { policy : Policy.t; vantage : Asn.t }

module Int_tbl = Hashtbl.Make (Int)

type watch = {
  net : Engine.network;
  state : Engine.state;
  view : view;
  retain : Asn.Set.t;  (* the view's own ASs *)
  table : Rib.t ref;
  held : Rpi_net.Prefix.t list Int_tbl.t;  (* atom id -> its last prefixes *)
}

let watch ~decision net view =
  let retain =
    match view with
    | Collector peers -> Asn.Set.of_list peers
    | Looking_glass { vantage; _ } -> Asn.Set.singleton vantage
  in
  let state = Engine.init_state ~decision net in
  { net; state; view; retain; table = ref Rib.empty; held = Int_tbl.create 256 }

let advance w deltas =
  let st = Engine.repropagate w.net w.state deltas in
  let changed = Engine.changed_atoms st in
  (* Retire every changed atom before rebuilding any, so a prefix handed
     between two changed atoms ends up with its new holder's routes. *)
  List.iter
    (fun id ->
      Option.iter
        (fun prefixes ->
          w.table := List.fold_left (Fun.flip Rib.remove_routes) !(w.table) prefixes;
          Int_tbl.remove w.held id)
        (Int_tbl.find_opt w.held id))
    changed;
  List.iter
    (fun id ->
      Option.iter
        (fun (result : Engine.result) ->
          (w.table :=
             match w.view with
             | Collector peers -> extend_collector_rib ~peers !(w.table) [ result ]
             | Looking_glass { policy; vantage } ->
                 extend_rib_at ~policy ~vantage !(w.table) [ result ]);
          Int_tbl.replace w.held id result.Engine.atom.Atom.prefixes)
        (Engine.state_result st ~retain:w.retain id))
    changed

let table w = !(w.table)
let state w = w.state
