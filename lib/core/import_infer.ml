module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Route = Rpi_bgp.Route
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Prefix = Rpi_net.Prefix

type observation = { neighbor : Asn.t; rel : Relationship.t; local_pref : int }

let observations_for graph ~vantage rib prefix =
  Rib.candidates rib prefix
  |> List.filter_map (fun (r : Route.t) ->
         match (Route.next_hop_as r, r.Route.local_pref) with
         | Some neighbor, Some local_pref -> begin
             match As_graph.relationship graph vantage neighbor with
             | Some rel -> Some { neighbor; rel; local_pref }
             | None -> None
           end
         | (Some _ | None), _ -> None)

type prefix_verdict = Typical | Atypical | Incomparable

(* "Atypical: the local preference of peer or provider routes is NOT LOWER
   than that of customer routes, or provider not lower than peer." *)
let judge observations =
  let of_class rel =
    List.filter_map
      (fun o -> if Relationship.equal o.rel rel then Some o.local_pref else None)
      observations
  in
  let customers = of_class Relationship.Customer in
  let peers = of_class Relationship.Peer in
  let providers = of_class Relationship.Provider in
  let classes_present =
    List.length (List.filter (fun l -> l <> []) [ customers; peers; providers ])
  in
  if classes_present < 2 then Incomparable
  else begin
    let violates lower higher =
      (* some route of the lower class has lp >= some route of the higher *)
      List.exists (fun lo -> List.exists (fun hi -> lo >= hi) higher) lower
    in
    if
      violates peers customers || violates providers customers
      || violates providers peers
    then Atypical
    else Typical
  end

type report = {
  vantage : Asn.t;
  prefixes_total : int;
  prefixes_compared : int;
  typical : int;
  atypical : int;
  pct_typical : float;
  class_values : (Relationship.t * int list) list;
}

let report_of ~vantage ~prefixes_total ~typical ~atypical observed =
  let compared = typical + atypical in
  let class_values =
    List.map
      (fun rel ->
        let vs =
          List.filter_map
            (fun (r, v) -> if Relationship.equal r rel then Some v else None)
            observed
          |> List.sort_uniq Int.compare
        in
        (rel, vs))
      Relationship.all
    |> List.filter (fun (_, vs) -> vs <> [])
  in
  {
    vantage;
    prefixes_total;
    prefixes_compared = compared;
    typical;
    atypical;
    pct_typical =
      (if compared = 0 then 100.0
       else 100.0 *. float_of_int typical /. float_of_int compared);
    class_values;
  }

let analyze graph ~vantage rib =
  let totals = ref 0 and typical = ref 0 and atypical = ref 0 in
  let values : (Relationship.t * int) list ref = ref [] in
  Rib.iter
    (fun prefix _ ->
      incr totals;
      let obs = observations_for graph ~vantage rib prefix in
      List.iter (fun o -> values := (o.rel, o.local_pref) :: !values) obs;
      match judge obs with
      | Typical -> incr typical
      | Atypical -> incr atypical
      | Incomparable -> ())
    rib;
  report_of ~vantage ~prefixes_total:!totals ~typical:!typical ~atypical:!atypical !values

let infer_class_preferences graph ~vantage rib =
  (* Frequency of each (class, lp) over all candidate routes. *)
  let counts = Hashtbl.create 16 in
  Rib.iter
    (fun prefix _ ->
      List.iter
        (fun o ->
          let key = (o.rel, o.local_pref) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        (observations_for graph ~vantage rib prefix))
    rib;
  List.filter_map
    (fun rel ->
      let best =
        Hashtbl.fold
          (fun (r, lp) n acc ->
            if Relationship.equal r rel then begin
              match acc with
              | Some (_, best_n) when best_n >= n -> acc
              | Some _ | None -> Some (lp, n)
            end
            else acc)
          counts None
      in
      Option.map (fun (lp, _) -> (rel, lp)) best)
    Relationship.all
