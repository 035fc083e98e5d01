(** The property-testing engine: seed-addressable random cases, greedy
    shrinking to a minimal counterexample, and machine-readable outcomes.

    Unlike qcheck, every case draws from a {!Rpi_prng.Prng.t} whose seed is
    a pure function of (run seed, property name, case index) — so a failure
    report quotes exactly the numbers needed to replay it, and two runs
    with the same seed produce byte-identical NDJSON. *)

type counterexample = {
  case : int;  (** 0-based index of the failing case. *)
  case_seed : int;  (** The PRNG seed that regenerates the failing input. *)
  reason : string;  (** What the check reported (after shrinking). *)
  input : string;  (** Rendering of the (shrunk) failing input. *)
  shrink_steps : int;  (** How many shrinking steps were applied. *)
}

type status =
  | Pass
  | Fail of counterexample

type outcome = {
  name : string;
  seed : int;  (** The run seed the outcome was produced under. *)
  cases_run : int;  (** Cases executed (stops at the first failure). *)
  checks : int;  (** Total sub-assertions over the passing cases. *)
  status : status;
}

type t
(** A named property, packaged with its generator, shrinker and check. *)

val make :
  name:string ->
  ?shrink:('a -> 'a list) ->
  gen:(Rpi_prng.Prng.t -> 'a) ->
  show:('a -> string) ->
  check:('a -> (int, string) result) ->
  unit ->
  t
(** [check x] returns [Ok n] when the case passes ([n] counts the
    sub-assertions it made, for reporting) and [Error reason] when it
    fails.  An exception escaping [check] (or [gen]) is itself a failure,
    never a crash of the harness.  [shrink] proposes strictly smaller
    candidates; the engine greedily descends to the first candidate that
    still fails, up to a step budget. *)

val name : t -> string

val run : t -> seed:int -> cases:int -> outcome
(** Deterministic in [(seed, cases)]. *)

val passed : outcome -> bool

val outcome_to_json : outcome -> Rpi_json.t
(** One NDJSON object: [{"property", "seed", "cases", "checks",
    "status"}], plus a ["counterexample"] object on failure.  Contains no
    timings or paths, so equal seeds give byte-identical lines. *)

val render : outcome -> string
(** Human-readable one-block report; failures include the replay hint. *)
