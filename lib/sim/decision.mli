(** The two decision processes the engine runs.

    Both apply the Gao–Rexford rules: an AS prefers higher local
    preference, then the shorter path, then deterministic tie-breaks;
    customer routes export everywhere, peer and provider routes only to
    customers and siblings.  They differ in what one selection covers.
    {!Engine} holds both rules and runs one visit per variant. *)

type t =
  | Per_as
      (** One best route per AS, exported to every neighbour the export
          rule allows: classic BGP. *)
  | Per_neighbor
      (** One best route per (AS, neighbour): each edge carries the most
          preferred candidate exportable over it, which is NS-BGP
          (Wang–Schapira–Rexford).  The engine stores no per-edge
          selection: every visit re-derives each edge's choice from the
          candidate arena, so memory is the same as under [Per_as]. *)

val vanilla : t
(** [Per_as]: the scheme the byte-identity goldens pin. *)

val neighbor_specific : t
(** [Per_neighbor]: converges on dispute-wheel gadgets where {!vanilla}
    oscillates into the step cap. *)

val name : t -> string
(** ["vanilla"] or ["neighbor-specific"]. *)
