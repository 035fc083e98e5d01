(** The single source of truth for worker-domain counts.

    Every CLI and the pool itself resolve the same triad the same way:
    an explicit [--jobs]/[-j] flag, else the [RPI_JOBS] environment
    variable, else [Domain.recommended_domain_count ()].  Binaries take
    the cmdliner {!term} and pass its value straight through as an
    [?jobs] optional argument; libraries let {!Pool.run} default to
    {!default}. *)

val default : unit -> int
(** [RPI_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  An unparseable [RPI_JOBS] is
    reported on stderr and ignored. *)

val term : int option Cmdliner.Term.t
(** The shared [--jobs]/[-j] option (environment fallback [RPI_JOBS],
    docv [N], consistent wording).  [None] when neither flag nor
    environment is given — pass it on as the [?jobs] argument and let
    the pool apply {!default}. *)
