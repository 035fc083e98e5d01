(** The rpilint rule engine.

    Purely syntactic: rules walk vanilla compiler-libs Parsetrees, so no
    typing environment is needed and inline snippets lint exactly like
    checked-out files.  Path-scoped rules (no-obj-magic, stdout-in-lib,
    missing-mli: [lib/]; failwith-in-core: [lib/core/]) key off the
    [~file] argument, which should be the repo-relative path
    (["lib/bgp/route.ml"], no leading ["./"]).

    Suppression: a source comment [(* rpilint: allow <rule-id> ... *)] on
    line [l] suppresses matching findings on [l] and [l + 1]. *)

val lint_source : file:string -> string -> Diagnostic.t list
(** Parse [source] (as an interface when [file] ends in [.mli], an
    implementation otherwise) and lint it.  A syntax error yields a
    single ["parse-error"] diagnostic instead of raising. *)

val lint_path : string -> Diagnostic.t list
(** Read and lint one checked-out file, parsing with [Pparse] (so AST
    files and preprocessor hooks behave exactly as the compiler's own
    driver).  Same error behaviour as {!lint_source}. *)

val parse_error_rule : string
(** The pseudo rule id carried by unparseable-input diagnostics. *)

val missing_mli : string list -> Diagnostic.t list
(** Given every walked file path, one finding per [lib/] implementation
    without a sibling interface. *)

val apply_baseline : Baseline.t -> Diagnostic.t list -> Diagnostic.t list
(** Drop findings covered by the checked-in baseline. *)

val suppressed_in : source:string -> Diagnostic.t -> bool
(** Whether a [(* rpilint: allow <rule-id> *)] comment in [source]
    covers this diagnostic — the same line-or-line-above matching the
    Parsetree engine applies, shared here so the typed engine honours
    identical suppression machinery. *)
