module Asn = Rpi_bgp.Asn
module Prefix = Rpi_net.Prefix
module Atom = Rpi_sim.Atom
module Engine = Rpi_sim.Engine
module Relationship = Rpi_topo.Relationship

type cause = Plain | Selective_subset | Selective_no_export | Aggregated

let cause_of_atom (atom : Atom.t) =
  if not (Asn.Set.is_empty atom.Atom.suppressed_at) then Aggregated
  else begin
    match atom.Atom.provider_scope with
    | Atom.Only_providers _ -> Selective_subset
    | Atom.All_providers ->
        if Asn.Set.is_empty atom.Atom.no_export_up then Plain else Selective_no_export
  end

let atom_of_prefix (t : Scenario.t) prefix =
  List.find_opt
    (fun (atom : Atom.t) -> List.exists (Prefix.equal prefix) atom.Atom.prefixes)
    t.Scenario.atoms

let selective_atom_count (t : Scenario.t) =
  List.length (List.filter Atom.is_selective t.Scenario.atoms)

let expected_sa (t : Scenario.t) ~provider prefix =
  match atom_of_prefix t prefix with
  | None -> None
  | Some atom -> begin
      let result =
        List.find_opt
          (fun (r : Engine.result) -> r.Engine.atom.Atom.id = atom.Atom.id)
          t.Scenario.results
      in
      match result with
      | None -> None
      | Some result -> begin
          match Engine.best_at result provider with
          | None -> None
          | Some route -> begin
              match route.Engine.rel with
              | Some (Relationship.Peer | Relationship.Provider) -> Some true
              | Some (Relationship.Customer | Relationship.Sibling) | None -> Some false
            end
        end
    end

let scheme_truth (t : Scenario.t) a =
  match Asn.Map.find_opt a t.Scenario.policies with
  | Some p -> p.Rpi_sim.Policy.scheme
  | None -> None
