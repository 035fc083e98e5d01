module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Paths = Rpi_topo.Paths
module Prefix = Rpi_net.Prefix

type prefix_class =
  | Customer_route
  | Sa_prefix of { next_hop : Asn.t; via : Relationship.t }
  | Unreachable

let classify_prefix graph ~provider rib prefix =
  match Rib.best rib prefix with
  | None -> Unreachable
  | Some best -> begin
      match Route.next_hop_as best with
      | None -> Customer_route (* the provider originates it itself *)
      | Some w -> begin
          match As_graph.relationship graph provider w with
          | Some (Relationship.Customer | Relationship.Sibling) -> Customer_route
          | Some ((Relationship.Peer | Relationship.Provider) as via) ->
              Sa_prefix { next_hop = w; via }
          | None ->
              (* Unknown adjacency: be conservative, as the paper is, and
                 treat it as not inferable rather than SA. *)
              Customer_route
        end
    end

type sa_record = {
  prefix : Prefix.t;
  origin : Asn.t;
  next_hop : Asn.t;
  via : Relationship.t;
}

type report = {
  provider : Asn.t;
  customers_seen : int;
  customer_prefixes : int;
  sa : sa_record list;
  customer_routed : int;
  unreachable : int;
  pct_sa : float;
}

let group_origins ~origin_of rib =
  let by_origin = Asn.Table.create 256 in
  Rib.iter
    (fun prefix routes ->
      match origin_of prefix routes with
      | None -> ()
      | Some origin ->
          let existing = Option.value ~default:[] (Asn.Table.find_opt by_origin origin) in
          Asn.Table.replace by_origin origin (prefix :: existing))
    rib;
  Asn.Table.fold (fun origin prefixes acc -> (origin, List.rev prefixes) :: acc) by_origin []
  |> List.sort (fun (a, _) (b, _) -> Asn.compare a b)

let origins_of_rib rib =
  group_origins rib ~origin_of:(fun _ routes ->
      Option.bind (Rpi_bgp.Decision.select_best routes) Route.origin_as)

let viewpoint_of_feed ~feed rib =
  Rib.fold
    (fun _ routes acc ->
      List.fold_left
        (fun acc (r : Route.t) ->
          if not (Option.equal Asn.equal r.Route.peer_as (Some feed)) then acc
          else begin
            match Rpi_bgp.As_path.to_list r.Route.as_path with
            | first :: rest when Asn.equal first feed ->
                let as_path = Rpi_bgp.As_path.of_list rest in
                let peer_as =
                  match rest with
                  | hop :: _ -> Some hop
                  | [] -> None
                in
                let route = { r with Route.as_path; peer_as } in
                Rib.add_route route acc
            | _ :: _ | [] -> acc
          end)
        acc routes)
    rib Rib.empty

let report_of ~provider ~is_customer ~classify origins =
  let customers_seen = ref 0 in
  let customer_prefixes = ref 0 in
  let sa = ref [] in
  let customer_routed = ref 0 in
  let unreachable = ref 0 in
  List.iter
    (fun (origin, prefixes) ->
      (* Phase 2 of Fig. 4: is the origin a (direct or indirect) customer? *)
      if (not (Asn.equal origin provider)) && is_customer origin then begin
        incr customers_seen;
        List.iter
          (fun prefix ->
            incr customer_prefixes;
            match classify prefix with
            | Customer_route -> incr customer_routed
            | Unreachable -> incr unreachable
            | Sa_prefix { next_hop; via } ->
                sa := { prefix; origin; next_hop; via } :: !sa)
          prefixes
      end)
    origins;
  let sa = List.rev !sa in
  {
    provider;
    customers_seen = !customers_seen;
    customer_prefixes = !customer_prefixes;
    sa;
    customer_routed = !customer_routed;
    unreachable = !unreachable;
    pct_sa =
      (if !customer_prefixes = 0 then 0.0
       else 100.0 *. float_of_int (List.length sa) /. float_of_int !customer_prefixes);
  }

let analyze graph ~provider ~origins rib =
  report_of ~provider
    ~is_customer:(Paths.is_customer graph ~provider)
    ~classify:(classify_prefix graph ~provider rib)
    origins
