module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Community = Rpi_bgp.Community

let prefix_counts rib =
  let counts = Asn.Table.create 64 in
  Rib.iter
    (fun _ routes ->
      let neighbors =
        List.filter_map Route.next_hop_as routes |> List.sort_uniq Asn.compare
      in
      List.iter
        (fun nb ->
          Asn.Table.replace counts nb
            (1 + Option.value ~default:0 (Asn.Table.find_opt counts nb)))
        neighbors)
    rib;
  Asn.Table.fold (fun nb n acc -> (nb, n) :: acc) counts []
  |> List.sort (fun (a1, n1) (a2, n2) ->
         match Int.compare n2 n1 with
         | 0 -> Asn.compare a1 a2
         | c -> c)

let neighbor_tags ~vantage rib =
  (* neighbour -> code -> count *)
  let tags : (int, int) Hashtbl.t Asn.Table.t = Asn.Table.create 64 in
  Rib.iter
    (fun _ routes ->
      List.iter
        (fun (r : Route.t) ->
          match Route.next_hop_as r with
          | None -> ()
          | Some nb ->
              Community.Set.iter
                (fun c ->
                  if
                    (not (Community.is_no_export c))
                    && (not (Community.is_no_advertise c))
                    && Asn.equal (Community.asn c) vantage
                    && Community.value c < Rpi_sim.Policy.no_reexport_code
                  then begin
                    let table =
                      match Asn.Table.find_opt tags nb with
                      | Some t -> t
                      | None ->
                          let t = Hashtbl.create 4 in
                          Asn.Table.add tags nb t;
                          t
                    in
                    Hashtbl.replace table (Community.value c)
                      (1 + Option.value ~default:0 (Hashtbl.find_opt table (Community.value c)))
                  end)
                r.Route.communities)
        routes)
    rib;
  Asn.Table.fold
    (fun nb table acc ->
      let code, _ =
        Hashtbl.fold
          (fun code n (best, best_n) -> if n > best_n then (code, n) else (best, best_n))
          table (-1, 0)
      in
      if code >= 0 then (nb, code) :: acc else acc)
    tags []
  |> List.sort (fun (a, _) (b, _) -> Asn.compare a b)

type semantics = {
  provider_codes : int list;
  peer_codes : int list;
  customer_codes : int list;
}

let full_table_fraction = 0.8
let customer_max_fraction = 0.05

let infer_semantics ~vantage ~has_providers rib =
  let total = max 1 (Rib.prefix_count rib) in
  let counts = prefix_counts rib in
  let count_of nb =
    match List.assoc_opt nb counts with
    | Some n -> n
    | None -> 0
  in
  let tags = neighbor_tags ~vantage rib in
  (* Mean announced-prefix count per code group: providers send near-full
     tables, peers mid-sized cones, customers the tail — the "big gap"
     reasoning of the Appendix, applied to code groups rather than to
     individual neighbours so a single large customer cannot flip its
     class. *)
  let groups : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (nb, code) ->
      Hashtbl.replace groups code
        (count_of nb :: Option.value ~default:[] (Hashtbl.find_opt groups code)))
    tags;
  let means =
    Hashtbl.fold
      (fun code volumes acc ->
        let mean =
          float_of_int (List.fold_left ( + ) 0 volumes)
          /. float_of_int (max 1 (List.length volumes))
        in
        (code, mean) :: acc)
      groups []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  (* Step 1: full-table groups are providers (only meaningful when the AS
     has providers at all). *)
  let provider_codes, rest =
    List.partition
      (fun (_, mean) ->
        has_providers && mean >= full_table_fraction *. float_of_int total)
      means
  in
  (* Step 2: split the rest at the largest multiplicative gap between
     consecutive group means: above it peers, below it customers. *)
  let peer_codes, customer_codes =
    match rest with
    | [] -> ([], [])
    | [ (code, mean) ] ->
        if mean <= customer_max_fraction *. float_of_int total then ([], [ (code, mean) ])
        else ([ (code, mean) ], [])
    | _ :: _ :: _ ->
        let arr = Array.of_list rest in
        let best_split = ref 1 and best_ratio = ref 0.0 in
        for i = 0 to Array.length arr - 2 do
          let _, high = arr.(i) and _, low = arr.(i + 1) in
          let ratio = (high +. 1.0) /. (low +. 1.0) in
          if ratio > !best_ratio then begin
            best_ratio := ratio;
            best_split := i + 1
          end
        done;
        let above = Array.to_list (Array.sub arr 0 !best_split) in
        let below =
          Array.to_list (Array.sub arr !best_split (Array.length arr - !best_split))
        in
        (* No meaningful gap: everything small is customers, everything
           else peers, by the absolute fraction. *)
        if !best_ratio < 3.0 then
          List.partition
            (fun (_, mean) -> mean > customer_max_fraction *. float_of_int total)
            rest
        else (above, below)
  in
  {
    provider_codes = List.sort Int.compare (List.map fst provider_codes);
    peer_codes = List.sort Int.compare (List.map fst peer_codes);
    customer_codes = List.sort Int.compare (List.map fst customer_codes);
  }

let classify_neighbor semantics ~code =
  if List.mem code semantics.provider_codes then Some Relationship.Provider
  else if List.mem code semantics.peer_codes then Some Relationship.Peer
  else if List.mem code semantics.customer_codes then Some Relationship.Customer
  else None

type report = {
  vantage : Asn.t;
  neighbors_checked : int;
  matching : int;
  pct_verified : float;
  mismatches : (Asn.t * Relationship.t * Relationship.t) list;
}

let verify ~vantage ~inferred rib =
  let has_providers =
    (* From the inferred graph's perspective. *)
    As_graph.providers inferred vantage <> []
  in
  let semantics = infer_semantics ~vantage ~has_providers rib in
  let tags = neighbor_tags ~vantage rib in
  let checked, matching, mismatches =
    List.fold_left
      (fun (checked, matching, mismatches) (nb, code) ->
        match (classify_neighbor semantics ~code, As_graph.relationship inferred vantage nb) with
        | Some community_rel, Some inferred_rel ->
            if Relationship.equal community_rel inferred_rel then
              (checked + 1, matching + 1, mismatches)
            else (checked + 1, matching, (nb, community_rel, inferred_rel) :: mismatches)
        | (Some _ | None), _ -> (checked, matching, mismatches))
      (0, 0, []) tags
  in
  {
    vantage;
    neighbors_checked = checked;
    matching;
    pct_verified =
      (if checked = 0 then 100.0 else 100.0 *. float_of_int matching /. float_of_int checked);
    mismatches = List.rev mismatches;
  }
