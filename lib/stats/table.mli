(** Plain-text table rendering for experiment output. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create columns] with column headers and alignment. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the arity differs from the header. *)

val title : t -> string option

val columns : t -> (string * align) list
(** Header cells with their alignment, in display order. *)

val rows : t -> string list list
(** Data rows in insertion order (as rendered, not reversed). *)

val render : t -> string
(** Box-drawn table with padded columns, preceded by the title. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_pct : ?decimals:int -> float -> string
(** [cell_pct 97.561] is ["97.6%"] with default decimals = 1. *)
