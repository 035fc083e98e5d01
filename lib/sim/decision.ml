module Asn = Rpi_bgp.Asn
module Path_intern = Rpi_bgp.Path_intern
module Relationship = Rpi_topo.Relationship

(* Export-class codes: the candidate arena stores the class as a small
   int so change detection and export filtering are scalar compares. *)
let class_none = 0
let class_customer = 1
let class_peer = 2
let class_provider = 3
let class_sibling = 4

let class_code = function
  | None -> class_none
  | Some Relationship.Customer -> class_customer
  | Some Relationship.Peer -> class_peer
  | Some Relationship.Provider -> class_provider
  | Some Relationship.Sibling -> class_sibling

(* Decoding returns constant blocks, so it never allocates an option. *)
let class_decode = function
  | 1 -> Some Relationship.Customer
  | 2 -> Some Relationship.Peer
  | 3 -> Some Relationship.Provider
  | 4 -> Some Relationship.Sibling
  | _ -> None

type ctx = {
  dc_intern : Path_intern.t;
  dc_meta : int array;
  dc_path : Path_intern.id array;
  dc_len : int array;
  dc_lp : int array;
  dc_sender_asn : int array;
}

type granularity = Per_as | Per_neighbor

module type S = sig
  val name : string
  val granularity : granularity
  val prefer : ctx -> int -> int -> int
  val export_ok : ctx -> rel:Relationship.t -> int -> bool
end

type t = (module S)

(* The Gao–Rexford rules shared by both shipped modules.  [prefer] is the
   arena form of [Engine.compare_candidates]: higher lp, then shorter
   path, then smaller sender ASN, then lexicographic path.  [export_ok]
   is the valley-free discipline: customer-class (and sibling-relayed)
   routes go everywhere, peer and provider routes only to customers and
   siblings, and the no-up tag pins a route below its receiver. *)
let[@rpilint.hot] gao_prefer ctx a b =
  match Int.compare ctx.dc_lp.(b) ctx.dc_lp.(a) with
  | 0 -> begin
      match Int.compare ctx.dc_len.(a) ctx.dc_len.(b) with
      | 0 -> begin
          match Int.compare ctx.dc_sender_asn.(a) ctx.dc_sender_asn.(b) with
          | 0 -> Path_intern.compare_lex ctx.dc_intern ctx.dc_path.(a) ctx.dc_path.(b)
          | c -> c
        end
      | c -> c
    end
  | c -> c

let[@rpilint.hot] gao_export_ok ctx ~rel slot =
  if slot < 0 then true (* the origin's own route exports everywhere *)
  else begin
    let meta = ctx.dc_meta.(slot) in
    let cls = meta land 7 in
    let to_down =
      match rel with
      | Relationship.Customer | Relationship.Sibling -> true
      | Relationship.Peer | Relationship.Provider -> false
    in
    (cls = class_none || cls = class_customer || cls = class_sibling || to_down)
    && (meta land 8 = 0 || to_down)
  end

module Vanilla = struct
  let name = "vanilla"
  let granularity = Per_as
  let prefer = gao_prefer
  let export_ok = gao_export_ok
end

module Neighbor_specific = struct
  let name = "neighbor-specific"
  let granularity = Per_neighbor
  let prefer = gao_prefer
  let export_ok = gao_export_ok
end

let vanilla : t = (module Vanilla)
let neighbor_specific : t = (module Neighbor_specific)

(* By name, not module identity: a re-wrapped module keeping the name
   "vanilla" asserts that its rules are Gao–Rexford's, so the solver may
   specialise on them (the rpicheck property
   [decision_vanilla_matches_reference] runs the unspecialised branch
   through a renamed copy). *)
let is_vanilla (module D : S) = String.equal D.name Vanilla.name
