(** Evolution of export policies over time, for the persistence study
    (Figs. 6 and 7): operators occasionally re-balance inbound traffic by
    re-announcing to different provider subsets, prefixes suffer brief
    outages, and some multihomed ASs run BGP {e conditional advertisement}
    (Section 5.1.5): a backup provider only sees the prefix while the
    primary link is down. *)

module Asn = Rpi_bgp.Asn

type churn = {
  p_policy_change : float;
      (** Per epoch, probability a selectively-announced atom re-samples
          its export policy (possibly becoming non-selective and back). *)
  p_outage : float;
      (** Per epoch, probability an atom is withdrawn for that epoch. *)
  p_late_start : float;
      (** Probability an atom only appears from a random epoch onward
          (prefixes newly announced during the window). *)
  p_early_stop : float;
      (** Probability an atom disappears from a random epoch onward
          (prefixes decommissioned during the window). *)
  p_conditional : float;
      (** Probability a multihomed atom runs conditional advertisement:
          announced to a primary provider normally, switched to a backup
          provider during primary-link failures. *)
  p_primary_down : float;
      (** Per epoch, probability a conditional atom's primary link is down
          (the backup announcement activates). *)
}

val monthly_churn : churn
(** Day-granularity churn: the visible policy changes the paper observes
    over a month (~1/6 of SA prefixes shift), plus prefix arrivals and
    departures that spread the uptime histogram of Fig. 7. *)

val hourly_churn : churn
(** Hour-granularity churn: almost perfectly stable within a day. *)

type epoch = {
  index : int;
  atoms : Atom.t list;  (** Atoms visible in this epoch (outages removed). *)
}

type delta = {
  added : Atom.t list;  (** In [b] but not [a] (by atom id). *)
  removed : Atom.t list;  (** In [a] but not [b] (by atom id). *)
  changed : (Atom.t * Atom.t) list;
      (** [(old, new)] pairs present in both but not [Atom.equal];
          listed in [b]'s order. *)
}

val delta_between : epoch -> epoch -> delta
(** Structural diff of two epochs' atom lists, keyed by atom id. *)

val deltas_between : epoch -> epoch -> Engine.Delta.t list
(** The engine deltas that turn epoch [a]'s announced state into epoch
    [b]'s: a [Withdraw] per removed atom (in [a]'s order), then an
    [Announce] per added atom and per changed atom's new spec (each in
    [b]'s order).  A re-scoped atom keeps its id, so its [Announce]
    replaces the old one in place; identical epochs give [[]]. *)

val evolve :
  Rpi_prng.Prng.t ->
  graph:Rpi_topo.As_graph.t ->
  churn:churn ->
  epochs:int ->
  Atom.t list ->
  epoch list
(** Markov evolution: each epoch derives from the previous one.  Policy
    changes re-sample the provider scope of the atom's origin uniformly
    among non-empty subsets of its providers (or all providers); outages
    are memoryless; conditional atoms flip between their primary and
    backup scope with the primary link's state. *)
