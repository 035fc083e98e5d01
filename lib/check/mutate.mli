(** Corpus mutators for fault injection: given a well-formed serialized
    dump, produce hostile variants (truncation, byte flips, line drops /
    duplications / shuffles, garbage interleave, splices) that parsers
    must survive with an [Error]/skip diagnostic, never an exception. *)

module Prng = Rpi_prng.Prng

type kind =
  | Truncate  (** Cut at an arbitrary byte offset. *)
  | Byte_flip  (** Replace one byte with an arbitrary byte. *)
  | Drop_line
  | Dup_line
  | Swap_lines
  | Shuffle_lines
  | Garbage_line  (** Insert a line of hostile bytes. *)
  | Splice  (** Join two misaligned halves of the text. *)
  | Blank  (** Replace everything with the empty string. *)

val mutants : Prng.t -> count:int -> string -> string list

val shrink_text : string -> string list
(** Structurally smaller variants (halves, single-line drops) used by the
    harness to minimize a failing mutant. *)

val surviving_lines : original:string -> mutant:string -> string list
(** The mutant's lines that are byte-identical to some line of the
    original — the lines a lenient parser has no excuse to lose. *)
