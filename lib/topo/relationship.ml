type t = Customer | Provider | Peer | Sibling

let invert = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer
  | Sibling -> Sibling

let to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"
  | Sibling -> "sibling"

let of_string = function
  | "customer" -> Ok Customer
  | "provider" -> Ok Provider
  | "peer" -> Ok Peer
  | "sibling" -> Ok Sibling
  | s -> Error (Printf.sprintf "invalid relationship %S" s)

(* Declaration-order rank: keeps the order explicit instead of leaning on
   structural compare of the variant representation. *)
let rank = function Customer -> 0 | Provider -> 1 | Peer -> 2 | Sibling -> 3
let equal a b = rank a = rank b

let all = [ Customer; Provider; Peer; Sibling ]
