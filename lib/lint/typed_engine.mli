(** The rpilint rule engine.

    Runs every rule but [missing-mli] (a file-system check in {!Pass})
    over dune's [.cmt] binary annotations and the [.cmti] beside each
    (loaded with compiler-libs [Cmt_format]), which carry the full
    Typedtree: resolved [Path.t]s, inferred types, and enough structure
    to build a whole-library call-graph approximation.  Identifiers are
    matched by path, so a bare [compare] is Stdlib's exactly when the
    compiler bound it there.  Path-scoped rules key off the unit's
    repo-relative source: [no-obj-magic] and [stdout-in-lib] run on
    [lib/], [failwith-in-core] on [lib/core/].  Types, and the call
    graph, answer what one file's syntax cannot: what runs inside a
    domain closure ([domain-race]), whether an expression allocates
    ([hot-path-alloc]), where an interned id flows ([intern-id-escape]),
    what event-loop code can reach ([blocking-in-eventloop]) and which
    exported values no other unit reads ([unused-export]).

    Suppression: the unit's source text is kept alongside its Typedtree,
    and [(* rpilint: allow <rule-id> *)] on the finding's line or the
    line above drops it.  See DESIGN.md §7c for the approximations (call
    graph by reference, mutex guards by presence, intra-procedural
    allocation only, whole-module uses). *)

type interface = {
  ti_file : string;  (** repo-relative [.mli] path *)
  ti_source : string;  (** its text, for suppression comments *)
  ti_signature : Typedtree.signature;
}

type unit_info = {
  tu_file : string;  (** repo-relative source path, as the compiler saw it *)
  tu_source : string;  (** source text, for suppression comments *)
  tu_modname : string list;
      (** normalized module path: dune's ["Rpi_sim__Engine"] mangling is
          split back into [["Rpi_sim"; "Engine"]] *)
  tu_structure : Typedtree.structure;
  tu_interface : interface option;
      (** the unit's interface, from the [.cmti] beside its [.cmt] *)
}

val cmt_error_rule : string
(** The pseudo rule id of an unreadable [.cmt] and of a walked source
    that no loaded unit covers; rpilint exits 2 on either. *)

val load_cmt : string -> (unit_info option, string) result
(** Read one [.cmt] file.  [Ok None] means the cmt is real but not
    lintable — an interface-only or dune-generated alias module with no
    source file, or a unit whose source cannot be found (tried relative
    to the cwd, then to the cmt's recorded build dir).
    The [.cmti] beside it, when there is one, becomes [tu_interface].
    [Error] carries a human-readable load failure. *)

val lint_units :
  ?rules:string list -> callers:unit_info list -> unit_info list -> Diagnostic.t list
(** Run the rules (all of them, or the subset named in [rules]; the
    [missing-mli] id selects nothing here) over a whole tree's units at
    once — the call graph spans every unit given, so pass the full tree
    for cross-module reachability.  Each unit's interface is linted
    with it.  [callers] are units only read, never linted:
    [unused-export] counts their references (and those of the linted
    units) when it checks each linted [lib/] unit's interface.  Results
    are suppression-filtered (an interface finding by its [.mli]'s
    comments), one per site and rule, and sorted by
    {!Diagnostic.compare}. *)
