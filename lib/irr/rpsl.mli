(** A working subset of the Routing Policy Specification Language (RPSL,
    RFC 2622): the [aut-num] objects with [import]/[export] policy lines
    that the paper mines from the Internet Routing Registry for Table 3.

    Supported line forms:

    {v
    aut-num:     AS1
    as-name:     EXAMPLE-NET
    import:      from AS2 action pref = 10; accept ANY
    import:      from AS3 accept AS3
    export:      to AS2 announce AS1
    changed:     noc@example.net 20021104
    source:      RADB
    v}

    Note RPSL [pref] is inverse to BGP local preference: smaller values are
    preferred. *)

module Asn = Rpi_bgp.Asn

type import_rule = {
  from_as : Asn.t;
  pref : int option;  (** RPSL preference (smaller wins); [None] if no action. *)
  accept : string;  (** Filter expression, kept verbatim ("ANY", "AS3", ...). *)
}

type export_rule = {
  to_as : Asn.t;
  announce : string;  (** Filter expression, kept verbatim. *)
}

type aut_num = {
  asn : Asn.t;
  as_name : string;
  imports : import_rule list;
  exports : export_rule list;
  changed : int;  (** Date of last update, as YYYYMMDD. *)
  source : string;  (** Registry name, e.g. "RADB". *)
}

val make :
  asn:Asn.t ->
  ?as_name:string ->
  ?imports:import_rule list ->
  ?exports:export_rule list ->
  ?changed:int ->
  ?source:string ->
  unit ->
  aut_num

val render : aut_num -> string
(** RPSL text of one object, terminated by a blank line. *)

val render_many : aut_num list -> string

val parse_object : string -> (aut_num, string) result
(** Parse one object's text. *)

val parse : string -> (aut_num list, string) result
(** Parse a registry file: objects separated by blank lines; unknown
    attributes are preserved-skipped; [%] and [#] comment lines ignored. *)

val parse_lenient : string -> aut_num list * string list
(** Best-effort parse of an untrusted registry: every blank-line-delimited
    block that parses becomes an object, every malformed block one
    diagnostic — never an exception. *)
