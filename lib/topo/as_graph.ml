module Asn = Rpi_bgp.Asn

type t = Relationship.t Asn.Map.t Asn.Map.t
(* adjacency: g[a][b] = how a classifies b.  Invariant: symmetric with
   inverse labels. *)

let empty = Asn.Map.empty

let add_as g a =
  if Asn.Map.mem a g then g else Asn.Map.add a Asn.Map.empty g

let set_directed g a b rel =
  let adj =
    match Asn.Map.find_opt a g with
    | Some adj -> adj
    | None -> Asn.Map.empty
  in
  Asn.Map.add a (Asn.Map.add b rel adj) g

let add_edge g a b rel =
  if Asn.equal a b then invalid_arg "As_graph.add_edge: self-loop";
  let g = set_directed g a b rel in
  set_directed g b a (Relationship.invert rel)

let add_p2c g ~provider ~customer = add_edge g provider customer Relationship.Customer
let add_p2p g a b = add_edge g a b Relationship.Peer
let add_s2s g a b = add_edge g a b Relationship.Sibling

let remove_edge g a b =
  let drop g x y =
    match Asn.Map.find_opt x g with
    | None -> g
    | Some adj -> Asn.Map.add x (Asn.Map.remove y adj) g
  in
  drop (drop g a b) b a

let mem_as g a = Asn.Map.mem a g

let relationship g a b =
  match Asn.Map.find_opt a g with
  | None -> None
  | Some adj -> Asn.Map.find_opt b adj

let mem_edge g a b =
  match relationship g a b with Some _ -> true | None -> false

let neighbors g a =
  match Asn.Map.find_opt a g with
  | None -> []
  | Some adj -> Asn.Map.bindings adj

let neighbors_with g a rel =
  neighbors g a
  |> List.filter_map (fun (b, r) -> if Relationship.equal r rel then Some b else None)

let customers g a = neighbors_with g a Relationship.Customer
let providers g a = neighbors_with g a Relationship.Provider
let peers g a = neighbors_with g a Relationship.Peer

let degree g a =
  match Asn.Map.find_opt a g with
  | None -> 0
  | Some adj -> Asn.Map.cardinal adj

let ases g = Asn.Map.bindings g |> List.map fst
let as_count g = Asn.Map.cardinal g

let fold_edges f g init =
  Asn.Map.fold
    (fun a adj acc ->
      Asn.Map.fold
        (fun b rel acc -> if Asn.compare a b < 0 then f a b rel acc else acc)
        adj acc)
    g init

let edge_count g = fold_edges (fun _ _ _ n -> n + 1) g 0

let is_multihomed g a =
  match providers g a with
  | _ :: _ :: _ -> true
  | [ _ ] | [] -> false

let is_stub g a = customers g a = []

let to_edges g = fold_edges (fun a b rel acc -> (a, b, rel) :: acc) g [] |> List.rev

let of_edges edges =
  List.fold_left (fun g (a, b, rel) -> add_edge g a b rel) empty edges

let render_edges g =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (a, b, rel) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s\n" (Asn.to_label a) (Asn.to_label b)
           (Relationship.to_string rel)))
    (to_edges g);
  Buffer.contents buf

let parse_edges text =
  let lines = String.split_on_char '\n' text in
  let rec go n g = function
    | [] -> Ok g
    | line :: rest -> begin
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (n + 1) g rest
        else begin
          match String.split_on_char ' ' trimmed |> List.filter (fun t -> t <> "") with
          | [ a; b; rel ] -> begin
              match (Asn.of_string a, Asn.of_string b, Relationship.of_string rel) with
              | Ok a, Ok b, Ok rel -> begin
                  match add_edge g a b rel with
                  | g -> go (n + 1) g rest
                  | exception Invalid_argument e ->
                      Error (Printf.sprintf "line %d: %s" n e)
                end
              | Error e, _, _ | _, Error e, _ | _, _, Error e ->
                  Error (Printf.sprintf "line %d: %s" n e)
            end
          | _ -> Error (Printf.sprintf "line %d: expected 'ASa ASb relationship'" n)
        end
      end
  in
  go 1 empty lines

let check_consistency g =
  let ok =
    Asn.Map.for_all
      (fun a adj ->
        Asn.Map.for_all
          (fun b rel ->
            match relationship g b a with
            | Some back -> Relationship.equal back (Relationship.invert rel)
            | None -> false)
          adj)
      g
  in
  if ok then Ok () else Error "asymmetric adjacency"
