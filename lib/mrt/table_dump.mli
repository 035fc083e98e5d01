(** Machine-readable BGP table dumps, modelled on the one-entry-per-line
    pipe-separated output of [bgpdump -m] for MRT TABLE_DUMP files — the
    format RouteViews archives are processed in.

    Line grammar (11 pipe-separated fields):

    {v
    RIB|<unix-time>|<vantage-as>|<peer-as>|<prefix>|<as-path>|<origin>|<next-hop>|<local-pref>|<med>|<communities>
    v}

    [origin] is [i], [e] or [?]; [local-pref], [med] and [communities] use
    [-] when absent; the AS path uses the textual form of
    {!Rpi_bgp.As_path} (AS_SETs in braces). *)

type entry = {
  timestamp : int;
  vantage_as : Rpi_bgp.Asn.t;
  route : Rpi_bgp.Route.t;
}

val entry_to_line : entry -> string

val entry_of_line : string -> (entry, string) result
(** Errors carry the offending field. *)

val rib_to_string : ?timestamp:int -> vantage_as:Rpi_bgp.Asn.t -> Rpi_bgp.Rib.t -> string

val parse : string -> (entry list, string) result
(** Parse a whole dump; blank lines and [#] comments are skipped.  The
    error message carries the 1-based line number. *)

val parse_lenient : string -> entry list * (int * string) list
(** Best-effort parse of an untrusted dump: every well-formed line becomes
    an entry, every malformed line a [(line_number, diagnostic)] pair —
    never an exception.  [parse] is this with a zero-tolerance policy. *)

val parse_to_rib : string -> (Rpi_bgp.Rib.t, string) result
(** Parse and fold all entries into a table (vantage/timestamp metadata is
    dropped; per-session replacement semantics of {!Rpi_bgp.Rib.add_route}
    apply). *)

val save_file : string -> ?timestamp:int -> vantage_as:Rpi_bgp.Asn.t -> Rpi_bgp.Rib.t -> unit
val load_file : string -> (entry list, string) result
(** IO failures (missing or unreadable file) surface as [Error], not
    [Sys_error]. *)
