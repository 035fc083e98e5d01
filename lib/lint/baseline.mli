(** The checked-in allowlist ([lint.allow]): findings that were reviewed
    and deliberately kept.  One entry per line, ["<rule-id> <path>"],
    where [path] is either a file or a directory prefix; ['#'] starts a
    comment.  The baseline suppresses a (rule, file) pair wholesale — it
    records debt at file granularity so line churn never invalidates it. *)

type t

val empty : t

val parse_string : string -> (t, string) result
(** Parse baseline text.  Unknown rule ids are an error so the baseline
    cannot silently rot when rules are renamed. *)

val load : string -> (t, string) result
(** [parse_string] over a file; [Error] on IO failure. *)

val apply : t -> Diagnostic.t list -> Diagnostic.t list
(** Drop the findings an entry covers: same rule, and the finding's file
    is the entry's path or lies under it. *)
