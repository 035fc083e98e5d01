(** One experiment per table and figure of the paper's evaluation.

    Each experiment returns a structured {!outcome} instead of an opaque
    string: the rendered text report (what the paper reports vs what this
    reproduction measures), the headline metrics as machine-readable
    [(name, value)] pairs, and the underlying {!Rpi_stats.Table.t} values
    — so results can be printed, emitted as JSON, diffed across runs, or
    asserted on in tests.

    Experiments are pure functions of the {!Context.t} (the per-provider
    SA analyses they share are memoized inside the context behind a
    mutex), so any subset may run concurrently on separate domains — see
    [Rpi_runner.Runner]. *)

type outcome = {
  id : string;  (** Catalogue identifier, e.g. ["table5"]. *)
  title : string;  (** One-line description. *)
  rendered : string;  (** Paper-style text report (header + tables + notes). *)
  metrics : (string * float) list;
      (** Headline numbers, never empty: the values the text report quotes
          (percentages, counts, medians), keyed by stable snake_case names. *)
  tables : Rpi_stats.Table.t list;
      (** The tables embedded in [rendered], in order of appearance. *)
}

type t = {
  id : string;
  title : string;
  cost : float;
      (** Relative wall-clock cost hint (roughly seconds on the default
          scenario).  The parallel runner hands out expensive experiments
          first so a long job never starts last and overhangs the batch;
          the hint has no effect on results or on their order. *)
  run : Context.t -> outcome;
}
(** A catalogue entry; [run] produces an outcome whose [id]/[title] match. *)

val fig6_fig7 : ?days:int -> ?hours:int -> Context.t -> outcome
(** Persistence of SA prefixes: time series and uptime histograms, from a
    churned re-simulation (defaults: 31 daily and 12 hourly epochs on a
    reduced scenario for wall-clock sanity). *)

val churn_persistence : ?epochs:int -> Context.t -> outcome
(** Extension: the Figs. 6-7 persistence machinery driven by
    topology-level churn — seeded link flaps, relationship migrations and
    announce/withdraw cycles from {!Rpi_topo.Churn} — with each epoch
    re-solved by the incremental engine ({!Rpi_sim.Engine.repropagate})
    instead of a fresh batch propagation (default 240 epochs on the
    reduced scenario). *)

val stability : ?seeds:int list -> Context.t -> outcome
(** Robustness: the headline metrics (typical-preference median, Tier-1 SA
    share, relationship-inference accuracy) recomputed on freshly built
    reduced worlds for several seeds — the reproduction's qualitative
    claims should hold in every world. *)

val all : t list
(** The full catalogue, in the paper's presentation order — the order
    [run_all] and the parallel runner report results in. *)

val find : string -> t option
(** Look an experiment up by its catalogue [id]. *)

val run_all : Context.t -> string
(** Render every experiment sequentially and join the reports with a blank
    line — byte-identical to the pre-[outcome] string API.  Prefer
    [Rpi_runner.Runner.run] (then [Runner.render]) to execute on several
    domains. *)
