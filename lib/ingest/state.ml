module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module Update = Rpi_bgp.Update
module Decision = Rpi_bgp.Decision
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Paths = Rpi_topo.Paths
module Prefix = Rpi_net.Prefix
module Export_infer = Rpi_core.Export_infer
module Import_infer = Rpi_core.Import_infer

type origin_mode = Derived | Fixed of (Asn.t * Prefix.t list) list

(* Everything the reports need to know about one prefix, recomputed only
   when an update touches the prefix.  [compute_entry] is the sole writer,
   so an entry is always the batch algorithms' verdicts for the current
   candidate set. *)
type entry = {
  e_class : Export_infer.prefix_class;
  e_best_origin : Asn.t option;
  e_verdict : Import_infer.prefix_verdict;
  e_obs : (Relationship.t * int) list;  (** import (class, local-pref) pairs *)
  e_sessions : (Asn.t * int) list;  (** routes per feeding neighbour *)
  e_nroutes : int;
}

type stats = {
  prefixes : int;
  routes : int;
  origin_ases : int;
  feeding_sessions : int;
}

type counters = {
  updates_applied : int;
  refreshes : int;
  prefixes_recomputed : int;
  dirty_prefixes : int;
}

type t = {
  graph : As_graph.t;
  vantage : Asn.t;
  origins : origin_mode ref;
  lock : Mutex.t;
  rib : Rib.t ref;
  entries : (Prefix.t, entry) Hashtbl.t;
  dirty : (Prefix.t, unit) Hashtbl.t;
      (** The invalidation frontier: prefixes touched by updates since the
          last refresh. *)
  generation : int ref;  (** applied-update count, the memos' key *)
  (* aggregates, maintained subtract-old/add-new on entry replacement *)
  route_total : int ref;
  best_origin_count : int Asn.Table.t;  (** prefixes per best-route origin *)
  session_count : int Asn.Table.t;  (** routes per feeding neighbour *)
  imp_typical : int ref;
  imp_atypical : int ref;
  class_value_count : (Relationship.t * int, int) Hashtbl.t;
      (** observations per (relationship, local-pref) *)
  customer_memo : bool Asn.Table.t;  (** Paths.is_customer, graph is fixed *)
  (* memoized report materializations, keyed by generation *)
  memo_sa : (int * Export_infer.report) option ref;
  memo_import : (int * Import_infer.report) option ref;
  memo_stats : (int * stats) option ref;
  (* observability *)
  n_refreshes : int ref;
  n_recomputed : int ref;
}

let bump tbl key delta =
  let v = delta + Option.value ~default:0 (Asn.Table.find_opt tbl key) in
  if v = 0 then Asn.Table.remove tbl key else Asn.Table.replace tbl key v

let is_customer t origin =
  match Asn.Table.find_opt t.customer_memo origin with
  | Some b -> b
  | None ->
      let b = Paths.is_customer t.graph ~provider:t.vantage origin in
      Asn.Table.replace t.customer_memo origin b;
      b

let compute_entry t prefix =
  match Rib.candidates !(t.rib) prefix with
  | [] -> None
  | routes ->
      let best = Decision.select_best routes in
      let e_best_origin = Option.bind best Route.origin_as in
      let e_class = Export_infer.classify_prefix t.graph ~provider:t.vantage !(t.rib) prefix in
      let obs = Import_infer.observations_for t.graph ~vantage:t.vantage !(t.rib) prefix in
      let e_obs =
        List.map
          (fun (o : Import_infer.observation) ->
            (o.Import_infer.rel, o.Import_infer.local_pref))
          obs
      in
      let e_verdict = Import_infer.judge obs in
      let e_sessions =
        List.fold_left
          (fun acc (r : Route.t) ->
            match r.Route.peer_as with
            | None -> acc
            | Some peer -> begin
                match List.assoc_opt peer acc with
                | Some n ->
                    (peer, n + 1) :: List.filter (fun (p, _) -> not (Asn.equal p peer)) acc
                | None -> (peer, 1) :: acc
              end)
          [] routes
      in
      Some
        {
          e_class;
          e_best_origin;
          e_verdict;
          e_obs;
          e_sessions;
          e_nroutes = List.length routes;
        }

(* Add ([sign] = 1) or retire ([sign] = -1) one entry's contribution to
   every aggregate.  Symmetry here is the whole invariant: an entry leaves
   the aggregates exactly as it entered them. *)
let account t sign entry =
  t.route_total := !(t.route_total) + (sign * entry.e_nroutes);
  Option.iter (fun origin -> bump t.best_origin_count origin sign) entry.e_best_origin;
  List.iter (fun (peer, n) -> bump t.session_count peer (sign * n)) entry.e_sessions;
  (match entry.e_verdict with
  | Import_infer.Typical -> t.imp_typical := !(t.imp_typical) + sign
  | Import_infer.Atypical -> t.imp_atypical := !(t.imp_atypical) + sign
  | Import_infer.Incomparable -> ());
  List.iter
    (fun key ->
      let v = sign + Option.value ~default:0 (Hashtbl.find_opt t.class_value_count key) in
      if v = 0 then Hashtbl.remove t.class_value_count key
      else Hashtbl.replace t.class_value_count key v)
    entry.e_obs

let refresh t =
  if Hashtbl.length t.dirty > 0 then begin
    let prefixes = Hashtbl.fold (fun p _ acc -> p :: acc) t.dirty [] in
    List.iter
      (fun prefix ->
        (match Hashtbl.find_opt t.entries prefix with
        | Some old ->
            account t (-1) old;
            Hashtbl.remove t.entries prefix
        | None -> ());
        match compute_entry t prefix with
        | Some entry ->
            account t 1 entry;
            Hashtbl.replace t.entries prefix entry
        | None -> ())
      prefixes;
    t.n_recomputed := !(t.n_recomputed) + List.length prefixes;
    t.n_refreshes := !(t.n_refreshes) + 1;
    Hashtbl.reset t.dirty
  end

let create ~graph ~vantage ?(origins = Derived) ?(initial = Rib.empty) () =
  let t =
    {
      graph;
      vantage;
      origins = ref origins;
      lock = Mutex.create ();
      rib = ref initial;
      entries = Hashtbl.create 1024;
      dirty = Hashtbl.create 64;
      generation = ref 0;
      route_total = ref 0;
      best_origin_count = Asn.Table.create 256;
      session_count = Asn.Table.create 64;
      imp_typical = ref 0;
      imp_atypical = ref 0;
      class_value_count = Hashtbl.create 32;
      customer_memo = Asn.Table.create 256;
      memo_sa = ref None;
      memo_import = ref None;
      memo_stats = ref None;
      n_refreshes = ref 0;
      n_recomputed = ref 0;
    }
  in
  List.iter (fun p -> Hashtbl.replace t.dirty p ()) (Rib.prefixes initial);
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let apply_locked t (u : Update.t) =
  t.rib := Feed.apply ~vantage:t.vantage u !(t.rib);
  Hashtbl.replace t.dirty (Update.prefix u) ();
  t.generation := !(t.generation) + 1

let apply t u = locked t (fun () -> apply_locked t u)

let apply_all t updates =
  locked t (fun () -> List.iter (fun u -> apply_locked t u) updates)

let rib t = locked t (fun () -> !(t.rib))

let stats_of_rib rib =
  let sessions =
    Rib.fold
      (fun _ routes acc ->
        List.fold_left
          (fun acc (r : Route.t) ->
            match r.Route.peer_as with
            | Some p -> Asn.Set.add p acc
            | None -> acc)
          acc routes)
      rib Asn.Set.empty
  in
  {
    prefixes = Rib.prefix_count rib;
    routes = Rib.route_count rib;
    origin_ases = List.length (Export_infer.origins_of_rib rib);
    feeding_sessions = Asn.Set.cardinal sessions;
  }

let stats t =
  locked t (fun () ->
      match !(t.memo_stats) with
      | Some (g, s) when g = !(t.generation) -> s
      | Some _ | None ->
          refresh t;
          let s =
            {
              prefixes = Hashtbl.length t.entries;
              routes = !(t.route_total);
              origin_ases = Asn.Table.length t.best_origin_count;
              feeding_sessions = Asn.Table.length t.session_count;
            }
          in
          t.memo_stats := Some (!(t.generation), s);
          s)

let class_of t prefix =
  match Hashtbl.find_opt t.entries prefix with
  | Some entry -> entry.e_class
  | None -> Export_infer.Unreachable

(* [Export_infer.origins_of_rib] from the cached best origins. *)
let derived_origins t =
  Export_infer.group_origins !(t.rib) ~origin_of:(fun prefix _ ->
      Option.bind (Hashtbl.find_opt t.entries prefix) (fun entry -> entry.e_best_origin))

let sa_report t =
  locked t (fun () ->
      match !(t.memo_sa) with
      | Some (g, r) when g = !(t.generation) -> r
      | Some _ | None ->
          refresh t;
          let origins =
            match !(t.origins) with
            | Fixed origins -> origins
            | Derived -> derived_origins t
          in
          let r =
            Export_infer.report_of ~provider:t.vantage ~is_customer:(is_customer t)
              ~classify:(class_of t) origins
          in
          t.memo_sa := Some (!(t.generation), r);
          r)

let import_report t =
  locked t (fun () ->
      match !(t.memo_import) with
      | Some (g, r) when g = !(t.generation) -> r
      | Some _ | None ->
          refresh t;
          let r =
            Import_infer.report_of ~vantage:t.vantage
              ~prefixes_total:(Hashtbl.length t.entries) ~typical:!(t.imp_typical)
              ~atypical:!(t.imp_atypical)
              (Hashtbl.fold (fun key _ acc -> key :: acc) t.class_value_count [])
          in
          t.memo_import := Some (!(t.generation), r);
          r)

let origin_groups t =
  locked t (fun () ->
      refresh t;
      derived_origins t)

let set_origins t origins =
  locked t (fun () ->
      t.origins := origins;
      (* Only the SA view reads the origin universe. *)
      t.memo_sa := None)

let counters t =
  locked t (fun () ->
      {
        updates_applied = !(t.generation);
        refreshes = !(t.n_refreshes);
        prefixes_recomputed = !(t.n_recomputed);
        dirty_prefixes = Hashtbl.length t.dirty;
      })

let vantage t = t.vantage
let graph t = t.graph
