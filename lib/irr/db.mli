(** An IRR registry: a collection of aut-num objects with the hygiene
    filters the paper applies (drop objects not updated during the
    measurement year; keep only well-connected ASs). *)

module Asn = Rpi_bgp.Asn

type t

val of_objects : Rpsl.aut_num list -> t
(** Later duplicates of an AS replace earlier ones (registry semantics). *)

val cardinal : t -> int
val find : t -> Asn.t -> Rpsl.aut_num option
val objects : t -> Rpsl.aut_num list

val fresh : since:int -> t -> t
(** Keep objects whose [changed] date (YYYYMMDD) is at least [since] — the
    paper discards ASs not updated during 2002. *)

val with_min_imports : int -> t -> t
(** Keep ASs whose object carries at least that many import rules (the
    paper keeps ASs with more than 50 neighbours). *)

val render : t -> string
val parse : string -> (t, string) result
val save_file : string -> t -> unit
