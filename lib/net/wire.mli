(** The number and token layer of the text codecs: decimal integers
    printed into a {!Buffer.t} and read from a substring, and scans over
    a line's bytes, all without allocating.

    Every wire type ({!Ipv4}, {!Prefix}, and the BGP attributes built on
    them) has one buffer printer and one substring reader made from these
    pieces.  A reader takes a fast path for plain decimal digits and hands
    any other spelling of a token to the stdlib's [int_of_string_opt], so
    both paths accept and reject exactly the same inputs. *)

val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string
(** [to_string print v] is what [print] writes for [v]. *)

val of_string : (string -> pos:int -> len:int -> 'a) -> string -> 'a
(** [of_string read s] reads the whole of [s]. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends the characters of [string_of_int n]. *)

val int_length : int -> int
(** [String.length (string_of_int n)], for padding a column before
    printing it. *)

val digits : string -> pos:int -> len:int -> int
(** The value of the [len] bytes of [s] at [pos] when they are 1 to 18
    decimal digits (so the value fits an [int]); [-1] for anything else,
    including a range outside [s]. *)

val int_of_substring : string -> pos:int -> len:int -> int option
(** [int_of_string_opt (String.sub s pos len)], reading plain digits
    without the copy. *)

val substring_is : string -> pos:int -> len:int -> string -> bool
(** [substring_is s ~pos ~len lit] is [String.sub s pos len = lit]
    without the copy. *)

val find : string -> int -> int -> char -> int
(** [find s i stop c] is the first index in [\[i, stop)] holding [c], or
    [stop]. *)

val skip : string -> int -> int -> char -> int
(** [skip s i stop c] is the first index in [\[i, stop)] not holding [c],
    or [stop]: the end of a run of separators. *)

val skip_blank : string -> int -> int -> int
(** [skip_blank s i stop] is the first index in [\[i, stop)] not holding a
    byte [String.trim] removes, or [stop]. *)

val skip_blank_back : string -> int -> int -> int
(** [skip_blank_back s i stop] is the least [j >= i] such that every byte
    in [\[j, stop)] is one [String.trim] removes. *)
