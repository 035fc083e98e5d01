(** The catalogue of rpilint rules.  Each rule has a stable kebab-case
    [id] (used in diagnostics, suppression comments and the baseline
    file), a one-line [summary] and the [rationale] shown by
    [rpilint --list]. *)

type t = { id : string; summary : string; rationale : string }

val mutable_toplevel : t
val poly_compare : t
val catch_all_handler : t
val no_obj_magic : t
val stdout_in_lib : t
val missing_mli : t
val failwith_in_core : t
val list_length_in_compare : t
val domain_race : t
val hot_path_alloc : t
val intern_id_escape : t
val blocking_in_eventloop : t
val unused_export : t

val caller_roots : string list
(** The trees whose units count as readers for {!unused_export}: lib,
    bin, bench, examples, perfbench and test. *)

val all : t list
(** Every shipped rule, in documentation order. *)

val find : string -> t option
(** Look a rule up by [id]. *)
