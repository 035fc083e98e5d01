(** Parallel experiment runner on OCaml 5 domains.

    A fixed-size pool of domains pulls experiments off a shared queue,
    executes them against one shared {!Rpi_experiments.Context.t} (safe:
    the context is immutable except for its mutex-protected SA cache), and
    collects the structured outcomes {e deterministically in declaration
    order}, with a per-experiment wall-clock timing.  The rendered text of
    a parallel run is byte-identical to a sequential one.

    This is the single execution entry point shared by the
    [bin/experiments] CLI, the bench harness, and the examples. *)

module Exp = Rpi_experiments.Exp
module Context = Rpi_experiments.Context

type timed = {
  outcome : Exp.outcome;
  elapsed_s : float;  (** Wall-clock seconds this experiment took. *)
}

type report = {
  jobs : int;  (** Number of domains the pool actually used. *)
  wall_clock_s : float;  (** Wall-clock seconds for the whole batch. *)
  schedule : string list;
      (** Experiment ids in hand-out order: declaration order when
          [jobs = 1], descending {!Exp.t.cost} (ties by declaration order)
          when [jobs > 1].  Purely observational — results are unaffected. *)
  results : timed list;  (** One per experiment, in declaration order. *)
}

val default_jobs : unit -> int
(** The [RPI_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()].  An unparseable
    [RPI_JOBS] is reported on stderr and ignored. *)

val run : ?jobs:int -> Context.t -> Exp.t list -> report
(** Execute the experiments on [jobs] domains (default {!default_jobs},
    clamped to the number of experiments; [jobs <= 1] runs everything in
    the calling domain with no spawns).  On several domains the shared
    queue hands experiments out longest-first by their {!Exp.t.cost} hint.
    Results come back in the order the experiments were given, regardless
    of completion or hand-out order.  If an experiment raises, the
    exception is re-raised (with its backtrace) after every domain has
    been joined. *)

val render : report -> string
(** The rendered reports joined with a blank line — byte-identical to
    [Exp.run_all] on the same context. *)

val outcome_to_json : Exp.outcome -> Rpi_json.t
(** [{"id", "title", "metrics": {name: value}, "tables": [{"title"?,
    "columns": [{"name", "align"}], "rows": [[cell]]}]}] — the rendered
    text is deliberately omitted; it is derivable and large. *)

val timed_to_json : timed -> Rpi_json.t
(** {!outcome_to_json} plus an ["elapsed_s"] field. *)
