(** BGP AS_PATH attribute.

    A path is a list of segments; in practice almost everything is a single
    AS_SEQUENCE, but AS_SET segments (produced by aggregation) are supported
    because the path-length rule counts them as one hop. *)

type segment =
  | Seq of Asn.t list  (** Ordered AS_SEQUENCE. *)
  | Set of Asn.Set.t  (** Unordered AS_SET from aggregation. *)

type t

val empty : t
(** The empty path (a route originated locally, before export). *)

val of_list : Asn.t list -> t
(** Single AS_SEQUENCE from the given hops (nearest AS first). *)

val of_segments : segment list -> t

val to_list : t -> Asn.t list
(** Flattened hops, nearest first; AS_SET members in ascending order. *)

val is_empty : t -> bool

val length : t -> int
(** Decision-process length: each sequence member counts 1, each AS_SET
    counts 1 regardless of size. *)

val first_hop : t -> Asn.t option
(** The neighbouring (next-hop) AS — first element. *)

val origin_as : t -> Asn.t option
(** The AS that originated the route — last element.  [None] for an empty
    path or when the last segment is an AS_SET. *)

val mem : Asn.t -> t -> bool
(** Loop detection: does the AS appear anywhere in the path? *)

val prepend : Asn.t -> t -> t
(** [prepend asn p] adds [asn] at the front (what an AS does on export). *)

val prepend_n : Asn.t -> int -> t -> t
(** Path prepending for traffic engineering: add [n >= 1] copies. *)

val pairs : t -> (Asn.t * Asn.t) list
(** Adjacent pairs of the flattened path, nearest first: for path
    [a b c] the pairs are [(a,b); (b,c)].  AS_SETs break adjacency — no
    pair spans an AS_SET boundary. *)

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** Parse ["701 1239 {4,5}"] from the [len] bytes of a string at [pos]:
    hops separated by runs of spaces, AS_SET members by commas, each read
    by {!Asn.of_substring}.  No hops is the empty path. *)

val of_string : string -> (t, string) result
(** {!of_substring} over the whole string. *)

val of_string_exn : string -> t

val to_buffer : Buffer.t -> t -> unit
(** Append ["701 1239 {4,5}"]; allocates nothing for a path without
    AS_SETs. *)

val to_string : t -> string
(** Through {!to_buffer}. *)

val compare : t -> t -> int
val equal : t -> t -> bool
