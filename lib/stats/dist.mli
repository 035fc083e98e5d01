(** Descriptive statistics over float samples. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val min_value : float list -> float option
val max_value : float list -> float option

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], linear interpolation between
    order statistics.  @raise Invalid_argument on an empty list or [p]
    outside range. *)

val median : float list -> float
(** @raise Invalid_argument on an empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val fraction : (int * int) -> float
(** [fraction (num, den)] as a float, 0 when [den = 0]. *)

val pct : (int * int) -> float
(** [fraction] scaled to 0-100. *)
