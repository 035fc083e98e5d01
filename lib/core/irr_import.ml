module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph
module Relationship = Rpi_topo.Relationship
module Rpsl = Rpi_irr.Rpsl
module Db = Rpi_irr.Db

type report = {
  asn : Asn.t;
  rules_classified : int;
  pairs_compared : int;
  pairs_typical : int;
  pct_typical : float;
}

let analyze graph (obj : Rpsl.aut_num) =
  let classified =
    List.filter_map
      (fun (r : Rpsl.import_rule) ->
        match (r.Rpsl.pref, As_graph.relationship graph obj.Rpsl.asn r.Rpsl.from_as) with
        | Some pref, Some rel -> Some (rel, pref)
        | (Some _ | None), _ -> None)
      obj.Rpsl.imports
  in
  let of_class rel =
    List.filter_map
      (fun (r, p) -> if Relationship.equal r rel then Some p else None)
      classified
  in
  let customers = of_class Relationship.Customer in
  let peers = of_class Relationship.Peer in
  let providers = of_class Relationship.Provider in
  (* RPSL pref: smaller is preferred, so typical means
     customer < peer, customer < provider, peer < provider. *)
  let count_pairs lower higher =
    List.fold_left
      (fun (total, ok) lo ->
        List.fold_left
          (fun (total, ok) hi -> (total + 1, if lo < hi then ok + 1 else ok))
          (total, ok) higher)
      (0, 0) lower
  in
  let t1, k1 = count_pairs customers peers in
  let t2, k2 = count_pairs customers providers in
  let t3, k3 = count_pairs peers providers in
  let pairs_compared = t1 + t2 + t3 in
  let pairs_typical = k1 + k2 + k3 in
  {
    asn = obj.Rpsl.asn;
    rules_classified = List.length classified;
    pairs_compared;
    pairs_typical;
    pct_typical =
      (if pairs_compared = 0 then 100.0
       else 100.0 *. float_of_int pairs_typical /. float_of_int pairs_compared);
  }

let fresh_since = 20020101
let min_rules = 10
let min_pairs = 8

let analyze_db graph db =
  Db.fresh ~since:fresh_since db
  |> Db.objects
  |> List.map (analyze graph)
  |> List.filter (fun r -> r.rules_classified >= min_rules && r.pairs_compared >= min_pairs)
