(** Sets of prefixes with CIDR-aware queries, built on {!Prefix_trie}. *)

type t

val cardinal : t -> int
val of_list : Prefix.t list -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val fold : (Prefix.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc

val covers_address : t -> Ipv4.t -> bool
(** True when some member contains the address. *)

val any_strictly_subsuming : Prefix.t -> t -> Prefix.t option
(** Shortest member that strictly subsumes the given prefix. *)

val more_specifics : Prefix.t -> t -> Prefix.t list
(** Members strictly inside the given prefix. *)

val aggregable_pairs : t -> (Prefix.t * Prefix.t * Prefix.t) list
(** All sibling pairs [(lo, hi, parent)] present in the set that would
    aggregate into [parent]. *)
