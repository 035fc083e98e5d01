(** Cisco-style [show ip bgp] rendering and parsing — the format Looking
    Glass servers expose and the paper scraped for its fine-grained tables.

    Two views are supported:
    - the summary table ([show ip bgp]): one line per candidate route with
      status codes ([*] valid, [>] best), network, next hop, MED, local
      preference, weight and AS path + origin code;
    - the per-prefix detail ([show ip bgp <prefix>]): the block with paths,
      local preference and the community list, as in the paper's Appendix
      example. *)

val render : ?router_id:Rpi_net.Ipv4.t -> Rpi_bgp.Rib.t -> string
(** The summary table, best route first within each prefix, remaining
    candidates in decision-preference order — a canonical rendering, so
    two tables holding the same routes produce the same bytes and
    [parse |> render] is a fixpoint. *)

val parse : string -> (Rpi_bgp.Rib.t, string) result
(** Parse a summary table back into a RIB.  Header lines are skipped;
    continuation lines (empty network column) inherit the previous
    network.  Local preference and MED columns parse back into the route;
    the best marker is validated against nothing (the RIB recomputes
    best).  This is {!parse_lenient} at zero tolerance: the first
    malformed row is the error, prefixed with its 1-based line number. *)

val parse_lenient : string -> Rpi_bgp.Route.t list * (int * string) list
(** Best-effort parse of an untrusted table: every well-formed row becomes
    a route (returned flat, without the RIB's per-session replacement, so
    callers can count salvaged rows), every malformed row a
    [(line_number, diagnostic)] pair — never an exception. *)

val render_prefix_detail : Rpi_bgp.Rib.t -> Rpi_net.Prefix.t -> string
(** The [show ip bgp <prefix>] block: paths with next hop, origin, local
    preference, best marker and communities. *)

type detail = {
  prefix : Rpi_net.Prefix.t;
  paths : (Rpi_bgp.As_path.t * int option * Rpi_bgp.Community.Set.t * bool) list;
      (** [(as_path, local_pref, communities, best)] per available path. *)
}

val parse_prefix_detail : string -> (detail, string) result
