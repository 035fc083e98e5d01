(** Persistence of SA prefixes over time (Section 5.1.4, Figs. 6 and 7).

    Input: for each measurement epoch (a day of the month, or an hour of a
    day), the set of prefixes visible at the provider and the subset
    classified SA.  Outputs the two time series of Fig. 6 and the uptime
    histograms of Fig. 7: a prefix's {e uptime} is the number of epochs it
    is present, its {e SA uptime} the number of epochs it is SA; prefixes
    whose SA uptime equals their uptime "remain SA", the others "shift from
    SA to non-SA". *)

module Prefix_set = Rpi_net.Prefix_set

type epoch_observation = {
  all_prefixes : Prefix_set.t;
  sa_prefixes : Prefix_set.t;  (** Must be a subset of [all_prefixes]. *)
}

type series = {
  epochs : int;
  all_counts : int list;  (** |all| per epoch (Fig. 6's upper curve). *)
  sa_counts : int list;  (** |SA| per epoch (Fig. 6's lower curve). *)
}

val series_of : epoch_observation list -> series

type uptime_report = {
  max_uptime : int;
  remaining_sa : (int * int) list;
      (** (uptime, #prefixes always SA when present) — Fig. 7 series 1. *)
  shifting : (int * int) list;
      (** (uptime, #prefixes SA sometimes but not always) — series 2. *)
  total_sa_touched : int;  (** Prefixes SA in at least one epoch. *)
  pct_shifting : float;  (** The paper's "about one sixth" per month. *)
}

val uptimes : epoch_observation list -> uptime_report
