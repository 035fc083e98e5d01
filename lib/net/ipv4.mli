(** IPv4 addresses as immutable 32-bit values.

    Addresses are stored in host order in an OCaml [int] (always wide enough
    on 64-bit platforms, which this library assumes). *)

type t
(** An IPv4 address. *)

val of_int32_exn : int -> t
(** [of_int32_exn n] interprets [n] as an unsigned 32-bit value.
    @raise Invalid_argument if [n] is outside [0, 2^32-1]. *)

val to_int : t -> int
(** Unsigned 32-bit numeric value. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] builds [a.b.c.d].
    @raise Invalid_argument if any octet is outside [0, 255]. *)

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** Parse the dotted quad in the [len] bytes of a string at [pos].  Plain
    1-3 digit octets take an allocation-free path; any other spelling is
    read octet by octet with [int_of_string_opt], which also accepts
    octets such as [+5] or [0x1].  The error names the token. *)

val of_string : string -> (t, string) result
(** {!of_substring} over the whole string. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the dotted quad, allocating nothing. *)

val to_string : t -> string
(** Dotted-quad rendering, through {!to_buffer}. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val succ : t -> t
(** Next address, wrapping at 255.255.255.255. *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], counting from the most significant
    (bit 0 is the top bit).  Requires [0 <= i < 32]. *)
