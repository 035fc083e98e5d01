(** Commercial relationships between neighbouring ASs.

    Throughout the library a relationship value is read from the point of
    view of an AS looking at one of its neighbours: [Customer] means "the
    neighbour is my customer". *)

type t =
  | Customer  (** The neighbour pays me for transit. *)
  | Provider  (** I pay the neighbour for transit. *)
  | Peer  (** Settlement-free peering. *)
  | Sibling  (** Same organisation; mutual transit. *)

val invert : t -> t
(** How the neighbour sees me: customers' providers are providers, peers
    stay peers. *)

val to_string : t -> string
val of_string : string -> (t, string) result

val equal : t -> t -> bool

val all : t list
(** The four relationships, in declaration order. *)
