(** Measurement primitives shared by the perfbench workloads: sample
    statistics, process readings from [/proc], and in-memory trace spans
    with per-layer aggregation.  Everything here is measurement code, so
    it has its own self-tests ([perfbench/test]). *)

(** {1 Sample statistics} *)

val sorted : float array -> float array
(** A sorted copy ([Float.compare]: [infinity] sorts last). *)

val rank : n:int -> permille:int -> int
(** Nearest-rank position (1-based) of the quantile [permille / 1000]
    among [n] samples: the smallest [r] with [r >= permille * n / 1000].
    [1 <= r <= n] for [n >= 1]. *)

val percentile : float array -> permille:int -> float
(** Nearest-rank quantile of a {e sorted} array ([~permille:990] is p99);
    [nan] when empty. *)

val median : float array -> float
(** [percentile ~permille:500] of an unsorted array. *)

val beyond : n:int -> permille:int -> int
(** Samples strictly above the nearest-rank position: [n - rank]. *)

val tail : top:int -> int -> int
(** The quantile (per mille) a tail figure reports for [n] samples: [top]
    when at least ten samples lie beyond it, otherwise the highest whole
    percentile below it that has ten beyond it, and the median when none
    above it has. *)

val permille_label : int -> string
(** [990] -> ["p99"], [999] -> ["p99.9"]. *)

(** {1 Process readings} *)

val now : unit -> float
(** Monotonic clock, seconds, with nanosecond resolution. *)

val cpu_seconds : unit -> float
(** User + system CPU time of this process ([Unix.times]). *)

val status_kb : string -> int
(** A [kB] field of [/proc/self/status] ("VmHWM", "VmRSS"); 0 when the
    field or the file is absent. *)

val reset_hwm : unit -> bool
(** Write [5] to [/proc/self/clear_refs], which resets the VmHWM peak to
    the current RSS.  [false] when the kernel refuses. *)

val steal_ticks : unit -> int
(** Summed steal column of the [cpu] line of [/proc/stat]; 0 when
    unavailable. *)

val cpus_allowed : unit -> int list
(** The CPUs this process may run on ([Cpus_allowed_list]). *)

val parse_cpu_list : string -> int list
(** ["0-2,5"] -> [[0; 1; 2; 5]]. *)

(** {1 Trace spans}

    One span per call into a layer, kept in memory until the run ends.
    Disabled (the default), {!span} is a plain call: end-to-end runs
    record nothing. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** Enclosing span's id, [-1] at top level. *)
  op : int;  (** Operation the span belongs to. *)
  start : float;
  stop : float;  (** {!now} at start and stop, seconds. *)
  alloc_words : float;  (** Words allocated in the span (minor + major - promoted). *)
  major_gcs : int;
  rss_start_kb : int;
  peak_kb : int;  (** Highest VmHWM observed between start and stop. *)
}

val set_enabled : bool -> unit

val set_op : int -> unit
(** Tag subsequently opened spans with this operation id. *)

val span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span (when enabled).  Before resetting
    VmHWM for the new span, the current peak is folded into every open
    ancestor, so nested spans keep correct peaks. *)

val spans : unit -> span list
(** Finished spans, in start order. *)

val clear : unit -> unit

val self_time : span -> span list -> float
(** [self_time s children]: [s]'s duration minus the union of its
    children's intervals (clipped to [s]). *)

type layer = {
  layer : string;
  ops : int;  (** Operations the layer appeared in. *)
  ms : float;  (** Median over ops of the summed self time. *)
  alloc_mw : float;  (** Median over ops of allocated megawords. *)
  gcs : float;  (** Median over ops of major collections. *)
  rss_growth_mb : float;
      (** Median over ops of the largest (peak - RSS at start) in the op. *)
}

val layers : span list -> layer list
(** Per span name, per-op aggregation then the median across ops, in
    first-appearance order. *)

val span_to_json : span -> Rpi_json.t
val span_of_json : Rpi_json.t -> span option
