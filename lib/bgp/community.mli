(** BGP community attribute (RFC 1997).

    A community is a 32-bit opaque value conventionally written [asn:value].
    The library distinguishes the well-known values that affect propagation
    (NO_EXPORT, NO_ADVERTISE) from ordinary operator-defined values, which
    routing-policy code treats as data (e.g. relationship tags, "do not
    announce to AS x" requests). *)

type t
(** One community value. *)

val make : Asn.t -> int -> t
(** [make asn value] builds [asn:value].
    @raise Invalid_argument if [value] is outside [0, 65535] or [asn]
    exceeds 16 bits (classic communities are 16:16). *)

val asn : t -> Asn.t
val value : t -> int

val no_export : t
(** Well-known NO_EXPORT (0xFFFFFF01): do not advertise outside the AS. *)

val no_advertise : t
(** Well-known NO_ADVERTISE (0xFFFFFF02): do not advertise to any peer. *)

val is_no_export : t -> bool
val is_no_advertise : t -> bool

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** Read the [len] bytes of a string at [pos]: ["asn:value"],
    ["no-export"] or ["no-advertise"].  Plain digits on both sides of the
    colon take an allocation-free path; any other spelling goes through
    [int_of_string_opt] half by half.  The error names the token. *)

val of_string : string -> (t, string) result
(** {!of_substring} over the whole string. *)

val of_string_exn : string -> t

val to_buffer : Buffer.t -> t -> unit
(** Append ["asn:value"] or the well-known name, allocating nothing. *)

val to_string : t -> string
(** Through {!to_buffer}. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : sig
  include Set.S with type elt = t

  val to_buffer : Buffer.t -> t -> unit
  (** Space-separated in ascending order, the way [show ip bgp] prints
      them. *)

  val to_string : t -> string
  (** Through {!to_buffer}. *)

  val of_substring : string -> pos:int -> len:int -> (t, string) result
  (** Parse a list separated by runs of spaces; the first malformed
      member is the error. *)

  val of_string : string -> (t, string) result
  (** {!of_substring} over the whole string. *)
end
