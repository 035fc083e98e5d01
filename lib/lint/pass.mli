(** One whole lint pass: the walk for sources and dune's [.cmt]
    artifacts, the [.cmt] load with its stale-artifact filter, the rules
    (unused-export reading every {!Rule.caller_roots} unit) and the
    baseline.  [rpilint] reports what it finds; the bench times it.  A
    root without [.cmt]s — a checkout rather than dune's build tree — is
    read under [_build/default/<root>]; a file root's units are looked
    for under its directory. *)

val default_roots : string list
(** The trees [dune build @lint] lints: lib, bin, bench and examples. *)

type timing = {
  files : int;  (** sources walked under the linted roots *)
  cmt_units : int;
      (** units loaded: the linted roots' and, when unused-export runs,
          the other caller roots' *)
  cmt_load_ms : float;
  rule_ms : (string * float) list;
      (** per rule, catalogue order; 0 for a rule not run *)
}

val missing_mli : string list -> Diagnostic.t list
(** One finding per [lib/] implementation among the given paths with no
    [.mli] beside it on disk. *)

val run :
  rules:string list -> baseline:Baseline.t -> string list -> Diagnostic.t list * timing
(** [run ~rules ~baseline roots] lints the files and directories [roots]
    with the rules whose ids are in [rules].  A unit's [.cmt] counts only
    when its recorded source is among the walked sources, so artifacts
    of renamed or deleted files cause no findings.  A walked source that
    no loaded unit or interface covers is a [cmt-error]: no rule checked
    it.  The findings have the baseline applied and are sorted and
    deduplicated; [cmt-error] diagnostics are always kept. *)
