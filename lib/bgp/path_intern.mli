(** Hash-consed AS paths.

    An intern table maps AS paths (built head-first out of cons cells) to
    small integer ids with memoized length, origin and first hop, so path
    equality is integer equality and the propagation engine's comparator
    never walks a list.  Tables are append-only for the duration of a run
    and are not domain-safe: create one per propagation run (the engine
    does), never share one across domains, and never serialize ids — they
    are meaningless outside the table that produced them. *)

type t
(** The intern table. *)

type id = private int
(** An interned path.  Ids from different tables are unrelated. *)

val nil : id
(** The empty path. *)

val create : ?capacity:int -> unit -> t
(** A fresh table; [capacity] is a hint for the expected number of
    distinct cells.  Pre-size generously for large runs: growth doubles
    every cell array and rehashes the slot table, so a table created at
    its working-set size never pays either cost. *)

val reset : t -> unit
(** Forget every interned path (all previously returned ids become
    invalid) but keep the grown capacity.  A reset table behaves like a
    fresh {!create} of the accumulated size — this is what lets one
    table be reused across many propagation runs. *)

val cons : t -> Asn.t -> id -> id
(** [cons t a p] interns the path [a :: p].  O(1) amortized. *)

val cons_n : t -> Asn.t -> int -> id -> id
(** [cons_n t a k p] prepends [k] copies of [a] (AS-path prepending);
    [k <= 0] returns [p] unchanged. *)

val of_list : t -> Asn.t list -> id
val to_list : t -> id -> Asn.t list

val length : t -> id -> int
(** Memoized; O(1). *)

val equal : id -> id -> bool
(** Path equality, for ids from the same table.  O(1). *)

val mem : t -> Asn.t -> id -> bool
(** Loop check: does the AS appear on the path?  A per-cell membership
    bloom rejects most misses in O(1); hits walk the path. *)

val compare_lex : t -> id -> id -> int
(** Lexicographic by AS number — the same order as
    [List.compare Asn.compare] on the corresponding lists. *)

type stats = { hits : int; misses : int; unique : int }

val stats : t -> stats
(** [hits]/[misses] count {!cons} calls that found / allocated a cell;
    [unique] is the number of live cells. *)
