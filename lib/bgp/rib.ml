module Prefix = Rpi_net.Prefix
module Trie = Rpi_net.Prefix_trie

type t = Route.t list Trie.t

let empty = Trie.empty

let same_session (a : Route.t) (b : Route.t) =
  Option.equal Asn.equal a.peer_as b.peer_as
  && Rpi_net.Ipv4.equal a.router_id b.router_id

let rec has_session route = function
  | [] -> false
  | r :: rest -> same_session r route || has_session route rest

(* [route] joins a prefix's candidates, replacing its session's route. *)
let add_candidate cands (route : Route.t) =
  if has_session route cands then
    route :: List.filter (fun r -> not (same_session r route)) cands
  else route :: cands

let candidates t prefix =
  match Trie.find prefix t with
  | Some routes -> routes
  | None -> []

let add_route route t =
  Trie.update route.Route.prefix
    (fun existing -> Some (add_candidate (Option.value existing ~default:[]) route))
    t

let remove_routes prefix t = Trie.remove prefix t

let withdraw ~peer_as prefix t =
  Trie.update prefix
    (fun existing ->
      match existing with
      | None -> None
      | Some routes -> begin
          let kept =
            List.filter
              (fun (r : Route.t) -> not (Option.equal Asn.equal r.peer_as (Some peer_as)))
              routes
          in
          match kept with
          | [] -> None
          | _ :: _ -> Some kept
        end)
    t

let withdraw_local prefix t =
  Trie.update prefix
    (fun existing ->
      match existing with
      | None -> None
      | Some routes -> begin
          let kept =
            List.filter (fun (r : Route.t) -> Option.is_some r.peer_as) routes
          in
          match kept with
          | [] -> None
          | _ :: _ -> Some kept
        end)
    t

(* A run of consecutive routes for one prefix costs one trie update. *)
let of_routes routes =
  let rec build t = function
    | [] -> t
    | (first : Route.t) :: _ as routes ->
        let prefix = first.prefix in
        let rec run cands = function
          | (r : Route.t) :: rest when Prefix.equal r.prefix prefix ->
              run (add_candidate cands r) rest
          | rest -> build (Trie.add prefix cands t) rest
        in
        run (candidates t prefix) routes
  in
  build empty routes

let best ?config t prefix = Decision.select_best ?config (candidates t prefix)

let prefixes t = Trie.keys t
let prefix_count t = Trie.cardinal t

let route_count t = Trie.fold (fun _ routes n -> n + List.length routes) t 0

let fold f t init = Trie.fold f t init
let iter f t = Trie.iter f t

let best_routes ?config t =
  Trie.to_list t
  |> List.filter_map (fun (_, routes) -> Decision.select_best ?config routes)

let all_routes t = Trie.to_list t |> List.concat_map snd

(* Candidate-list order within a prefix is arrival order, which differs
   between a rib built in one pass and one reached through withdraw +
   re-announce; equality must not see it. *)
let equal a b =
  List.equal Route.equal
    (List.sort Route.compare (all_routes a))
    (List.sort Route.compare (all_routes b))

let longest_match t addr = Trie.longest_match addr t

let merge a b = Trie.fold (fun _ routes acc -> List.fold_left (fun t r -> add_route r t) acc routes) b a

type diff = {
  added : Prefix.t list;
  removed : Prefix.t list;
  best_changed : (Prefix.t * Route.t option * Route.t option) list;
  unchanged : int;
}

let diff ?config ~old_rib new_rib =
  let added = ref [] and removed = ref [] and changed = ref [] and same = ref 0 in
  iter
    (fun prefix _ ->
      match candidates old_rib prefix with
      | [] -> added := prefix :: !added
      | _ :: _ ->
          let old_best = best ?config old_rib prefix in
          let new_best = best ?config new_rib prefix in
          let hop r = Option.bind r Route.next_hop_as in
          if Option.equal Asn.equal (hop old_best) (hop new_best) then incr same
          else changed := (prefix, old_best, new_best) :: !changed)
    new_rib;
  iter
    (fun prefix _ ->
      match candidates new_rib prefix with
      | [] -> removed := prefix :: !removed
      | _ :: _ -> ())
    old_rib;
  {
    added = List.rev !added;
    removed = List.rev !removed;
    best_changed = List.rev !changed;
    unchanged = !same;
  }
