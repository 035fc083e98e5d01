(** Autonomous System numbers. *)

type t
(** An AS number (16-bit range is enough for the 2002-era Internet this
    library models, but any non-negative 32-bit value is accepted). *)

val of_int : int -> t
(** @raise Invalid_argument when negative or above 2^32-1. *)

val to_int : t -> int

val of_substring : string -> pos:int -> len:int -> (t, string) result
(** Read the [len] bytes of a string at [pos].  Plain digits take an
    allocation-free path; any other spelling (["AS7018"], ["+5"],
    ["0x10"]) goes through [int_of_string_opt].  The error names the
    token. *)

val of_string : string -> (t, string) result
(** Accepts ["7018"] and ["AS7018"]; {!of_substring} over the whole
    string. *)

val of_string_exn : string -> t

val to_buffer : Buffer.t -> t -> unit
(** Append the bare decimal, allocating nothing. *)

val to_string : t -> string
(** Bare decimal, e.g. ["7018"] — the form used inside AS paths; through
    {!to_buffer}. *)

val to_label : t -> string
(** Human label, e.g. ["AS7018"]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Table : Hashtbl.S with type key = t
