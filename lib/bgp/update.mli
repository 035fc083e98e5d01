(** BGP UPDATE messages: the unit of exchange between simulated speakers. *)

type payload =
  | Announce of Route.t
  | Withdraw of Rpi_net.Prefix.t

type t = {
  from_as : Asn.t;  (** Sender. *)
  to_as : Asn.t;  (** Receiver. *)
  payload : payload;
}

val announce : from_as:Asn.t -> to_as:Asn.t -> Route.t -> t
val withdraw : from_as:Asn.t -> to_as:Asn.t -> Rpi_net.Prefix.t -> t

val prefix : t -> Rpi_net.Prefix.t
(** The prefix the message concerns. *)

val apply : t -> Rib.t -> Rib.t
(** Fold the message into the receiver's Adj-RIB-In.  Announcements whose
    AS path already contains the receiver are dropped (loop prevention, the
    first thing a BGP router does on receipt). *)
