(** The one place report JSON is shaped.  [bgptool stats]/[bgptool sa],
    the rpiserved responses and the property harness's batch recompute all
    render through these functions, so "byte-identical" across them is a
    property of the code structure, not of test coverage. *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Prefix = Rpi_net.Prefix

val stats : State.stats -> Rpi_json.t
(** The [bgptool stats --json] object. *)

val stats_of_rib : Rib.t -> Rpi_json.t
(** Batch path: [stats (State.stats_of_rib rib)]. *)

val stats_of_state : State.t -> Rpi_json.t
(** Incremental path: read the state's aggregates. *)

val sa : viewpoint:string -> Rpi_core.Export_infer.report -> Rpi_json.t
(** The [bgptool sa --json] object; [viewpoint] labels how the table was
    narrowed (["own-feed"], ["multi-feed-fallback"], ["live"]). *)

val sa_status :
  provider:Asn.t -> prefix:Prefix.t -> Rpi_core.Export_infer.prefix_class -> Rpi_json.t
(** One prefix's classification: status ["customer-route"],
    ["unreachable"], or ["selective"] with [next_hop]/[via]. *)

val import_pref : Rpi_core.Import_infer.report -> Rpi_json.t
val peer_export : Rpi_core.Peer_export.report -> Rpi_json.t
