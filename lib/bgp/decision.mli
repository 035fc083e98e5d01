(** The BGP best-route decision process (Section 2.2.1 of the paper).

    A route is selected by, in order:
    + highest local preference;
    + shortest AS path;
    + lowest origin type (IGP < EGP < Incomplete);
    + smallest MED, compared only between routes with the same next-hop AS;
    + eBGP-learned over iBGP-learned;
    + smallest IGP metric to the egress router;
    + smallest router ID.

    The comparison is exposed both as a total pairwise order (with the MED
    step degraded to an unconditional comparison) and as the exact
    list-selection procedure in which MED only discriminates within a
    next-hop-AS group. *)

type config = {
  use_local_pref : bool;
      (** Ablation knob: when false, step 1 is skipped and selection starts
          at path length — the "default BGP" the paper contrasts with. *)
  med_across_as : bool;
      (** When true, MED is compared across different next-hop ASs
          ("always-compare-med"); the standard behaviour is false. *)
}

val default_config : config

val compare_routes : ?config:config -> Route.t -> Route.t -> int
(** [compare_routes a b < 0] when [a] is preferred.  Total order used for
    deterministic sorting; MED compared unconditionally at its step. *)

val select_best : ?config:config -> Route.t list -> Route.t option
(** Full decision procedure over a candidate set, honouring the
    same-next-hop-AS restriction on the MED step. *)

type step =
  | Local_pref
  | Path_length
  | Origin
  | Med
  | Ebgp_over_ibgp
  | Igp_metric
  | Router_id
  | Arbitrary

val deciding_step : ?config:config -> Route.t -> Route.t -> step
(** Which rule first separates two routes — handy for inference diagnostics
    ("was this choice driven by local-pref or by path length?"). *)

val explain : ?config:config -> Route.t list -> (Route.t * step option) list
(** The winner first with [None], then every loser with the step at which
    the winner first beats it — a per-candidate account of the
    selection. *)

val step_to_string : step -> string
