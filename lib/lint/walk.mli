(** The file sets a lint pass reads: the sources under some roots and the
    typedtree artifacts dune built for them.  [rpilint] and the bench's
    timed lint pass both find their files here. *)

val sources : string list -> string list
(** Every [.ml]/[.mli] under the roots (files or directories), skipping
    names that start with a dot and [_build], as repo-relative paths
    without a leading ["./"] (what {!Engine.lint_path} expects); sorted,
    no duplicates. *)

val cmts : string list -> string list
(** Every [.cmt] under the roots.  They live in dune's dot-directories
    ([lib/sim/.rpi_sim.objs/byte/]), which {!sources} skips, so this walk
    descends everywhere except [_build] and [.git].  A root with none —
    a repo checkout rather than dune's build tree — is retried under
    [_build/default/<root>]. *)
