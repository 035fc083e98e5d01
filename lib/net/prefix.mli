(** IPv4 CIDR prefixes.

    A prefix is a network address plus a mask length; the address is always
    stored in canonical form (host bits zeroed), so structural equality is
    semantic equality. *)

type t
(** A CIDR prefix such as [10.1.0.0/16]. *)

val make : Ipv4.t -> int -> t
(** [make addr len] canonicalises [addr] to [len] bits.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val network : t -> Ipv4.t
(** Canonical network address. *)

val length : t -> int
(** Mask length in bits. *)

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** Parse ["a.b.c.d/len"] from the [len] bytes of a string at [pos].  A
    bare address parses as a /32; host bits are cleared.  The address is
    read by {!Ipv4.of_substring} and the length like [int_of_string_opt]
    would. *)

val of_string : string -> (t, string) result
(** {!of_substring} over the whole string. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_buffer : Buffer.t -> t -> unit
(** Append ["a.b.c.d/len"], allocating nothing. *)

val to_string : t -> string
(** Through {!to_buffer}. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Total order: by network address, then by mask length (shorter first). *)

val equal : t -> t -> bool

val contains : t -> Ipv4.t -> bool
(** [contains p a] is true when address [a] falls inside [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is true when every address of [q] lies in [p]
    (i.e. [p] is a supernet of, or equal to, [q]). *)

val strictly_subsumes : t -> t -> bool
(** [subsumes p q && not (equal p q)]. *)

val split : t -> (t * t) option
(** [split p] returns the two halves of [p] ([len+1] bits each), or [None]
    for a /32. *)

val split_to : t -> int -> t list
(** [split_to p len] enumerates the [2^(len - length p)] subnets of [p] at
    mask length [len].  Returns [[p]] if [len <= length p].
    @raise Invalid_argument if [len > 32] or the expansion exceeds 2^16
    subnets (guards against accidental blow-up). *)

val supernet : t -> t option
(** Immediate parent ([len-1] bits), or [None] for the default route. *)

val aggregate : t -> t -> t option
(** [aggregate p q] returns the parent prefix when [p] and [q] are sibling
    halves of it, and [None] otherwise. *)

val default_route : t
(** [0.0.0.0/0]. *)

val bit : t -> int -> bool
(** [bit p i] is bit [i] of the network address; requires [i < length p]. *)

val random : Rpi_prng.Prng.t -> min_len:int -> max_len:int -> t
(** Random prefix with uniform length in [min_len, max_len] and random
    network bits; canonicalised. *)

val first_address : t -> Ipv4.t
val last_address : t -> Ipv4.t
