(* Compare two BENCH_results.json files and fail loudly on regressions.

   Usage:  check_regression [--tolerance F] [--tolerance-wall F]
             [--tolerance-micro F] [--floor-ns F] BASELINE NEW

   Watches the wall-clock and per-run keys where bigger means slower —
   run_all timings, per-experiment elapsed seconds, ingest replay and
   churn repropagation totals and every microbenchmark — and exits 1 if
   any of them grew by more than its class tolerance.  The two classes
   regress differently, so they carry separate defaults:

   - wall-clock seconds (run_all, exp/*, ingest_replay, churn timings)
     are dominated by scenario construction and scheduling noise; their
     tolerance defaults to 0.50 (fail on >50% growth);
   - microbenchmark ns/run numbers are tight bechamel fits; their
     tolerance defaults to 0.20.

   [--tolerance F] sets both at once (the historical single-knob
   behaviour).  The lint/wall_s key carries its own fixed threshold
   instead: the @lint pass is short and dominated by filesystem walks,
   so it only fails when it slows down by more than 2x.  The churn
   differential additionally gates on semantics, not just speed: if the
   new run reports [churn.identical_output = false] or a
   [churn.speedup] below 5x, that is a regression regardless of any
   tolerance — those are the incremental engine's correctness and
   usefulness floors.

   Keys present on only one side are reported and skipped, so adding or
   retiring a benchmark never breaks the check, and a `--quick` run
   (microbenches only) can be diffed against a full baseline on the
   intersection.  Microbenchmarks under [--floor-ns] (default 100 ns) in
   the baseline are skipped: at that scale the monotonic clock's own
   jitter exceeds the tolerance.  When both files carry a [host]
   fingerprint and the fingerprints differ, a warning is printed (the
   comparison still runs: cross-host ratios are indicative, not
   binding).  Exit codes: 0 ok, 1 regression, 2 usage or parse
   error. *)

module Json = Rpi_json

let usage () =
  prerr_endline
    "usage: check_regression [--tolerance F] [--tolerance-wall F] \
     [--tolerance-micro F] [--floor-ns F] BASELINE NEW";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("check_regression: " ^ s); exit 2) fmt

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> die "%s" msg
  in
  match Json.of_string (String.trim text) with
  | Ok doc -> doc
  | Error msg -> die "%s: %s" path msg

let member key = function
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some _ | None -> None

(* Tolerance class of a watched key: which knob bounds its growth. *)
type cls =
  | Wall  (** wall-clock seconds; [--tolerance-wall] *)
  | Micro  (** bechamel ns/run; [--tolerance-micro], noise floor applies *)
  | Fixed of float  (** per-key max-allowed ratio, e.g. lint/wall_s *)

(* The watched (key, (value, class)) pairs of one results file, in a
   stable reporting order. *)
let watched doc =
  let scalar_cls cls path keys =
    let v = List.fold_left (fun acc k -> Option.bind acc (member k)) (Some doc) keys in
    match number v with Some f -> [ (path, (f, cls)) ] | None -> []
  in
  let scalar path keys = scalar_cls Wall path keys in
  let experiments =
    match member "experiments_sequential" doc with
    | Some (Json.List rows) ->
        List.concat_map
          (fun row ->
            match (member "id" row, number (member "elapsed_s" row)) with
            | Some (Json.String id), Some f ->
                [ ("exp/" ^ id ^ ".elapsed_s", (f, Wall)) ]
            | _ -> [])
          rows
    | Some _ | None -> []
  in
  let micro =
    match member "microbench_ns_per_run" doc with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match number (Some v) with
            | Some f -> Some ("micro/" ^ name, (f, Micro))
            | None -> None)
          fields
    | Some _ | None -> []
  in
  let scale =
    (* scale.<tier>.* — paper-scale propagation and the incremental
       state's MB per atom: wall-clock class (the tiers run once, no
       sampling loop, so the generous wall tolerance is the right one).
       Tier sets may differ between baselines; the usual intersection
       rule applies. *)
    match member "scale" doc with
    | Some (Json.Obj tiers) ->
        List.concat_map
          (fun (tier, obj) ->
            List.filter_map
              (fun key ->
                match number (member key obj) with
                | Some f -> Some ("scale." ^ tier ^ "." ^ key, (f, Wall))
                | None -> None)
              [ "generate_s"; "prepare_s"; "propagate_s"; "ns_per_as_atom"; "state_mb_per_atom" ])
          tiers
    | Some _ | None -> []
  in
  let fanout =
    (* fanout.<batch>.* — only the sequential side is watched: the pool
       side measures dispatch overhead on small hosts and is gated by
       the speedup floor below instead. *)
    match member "fanout" doc with
    | Some (Json.Obj batches) ->
        List.filter_map
          (fun (batch, obj) ->
            match number (member "seq_s" obj) with
            | Some f -> Some ("fanout." ^ batch ^ ".seq_s", (f, Wall))
            | None -> None)
          batches
    | Some _ | None -> []
  in
  scalar "run_all.sequential_s" [ "run_all"; "sequential_s" ]
  @ scalar "run_all.parallel_s" [ "run_all"; "parallel_s" ]
  @ experiments
  @ scale @ fanout
  @ scalar "ingest_replay.incremental_s" [ "ingest_replay"; "incremental_s" ]
  @ scalar "ingest_replay.batch_s" [ "ingest_replay"; "batch_s" ]
  @ scalar "churn.incremental_s" [ "churn"; "incremental_s" ]
  @ scalar "churn.batch_s" [ "churn"; "batch_s" ]
  @ scalar "serve.query.p50_us" [ "serve"; "query"; "p50_us" ]
  @ scalar "serve.query.p99_us" [ "serve"; "query"; "p99_us" ]
  @ scalar "serve.mixed.p50_us" [ "serve"; "mixed"; "p50_us" ]
  @ scalar "serve.mixed.p99_us" [ "serve"; "mixed"; "p99_us" ]
  @ scalar "serve.pipelined.us_per_req" [ "serve"; "pipelined"; "us_per_req" ]
  @ scalar_cls (Fixed 2.0) "lint/wall_s" [ "lint"; "wall_s" ]
  @ micro

(* The churn differential's absolute floors: correctness (incremental
   output byte-identical to batch) and the 5x usefulness bar.  Checked
   on the NEW run only — they are properties of a run, not ratios. *)
let churn_floors doc =
  let failures = ref [] in
  (match member "churn" doc with
  | None -> ()
  | Some churn ->
      (match member "identical_output" churn with
      | Some (Json.Bool false) ->
          failures := "churn.identical_output is false (incremental diverged from batch)"
                      :: !failures
      | Some _ | None -> ());
      (match number (member "speedup" churn) with
      | Some s when s < 5.0 ->
          failures :=
            Printf.sprintf "churn.speedup %.2fx is below the 5x floor" s :: !failures
      | Some _ | None -> ()));
  List.rev !failures

(* The serving core's absolute floors, checked on the NEW run only:
   pipelined responses byte-identical to connection-per-request ones,
   the 5x pipelining bar, exact load shedding, and zero protocol
   errors anywhere in the load run. *)
let serve_floors doc =
  let failures = ref [] in
  (match member "serve" doc with
  | None -> ()
  | Some serve ->
      (match
         Option.bind (member "pipelined" serve) (member "identical_output")
       with
      | Some (Json.Bool false) ->
          failures :=
            "serve.pipelined.identical_output is false (pipelined responses \
             diverged from serial)"
            :: !failures
      | Some _ | None -> ());
      (match number (Option.bind (member "pipelined" serve) (member "speedup")) with
      | Some s when s < 5.0 ->
          failures :=
            Printf.sprintf "serve.pipelined.speedup %.2fx is below the 5x floor" s
            :: !failures
      | Some _ | None -> ());
      (match
         ( number (Option.bind (member "shed" serve) (member "observed")),
           number (Option.bind (member "shed" serve) (member "expected")) )
       with
      | Some got, Some want when got <> want ->
          failures :=
            Printf.sprintf "serve.shed.observed %.0f, expected %.0f" got want
            :: !failures
      | _ -> ());
      (match number (member "protocol_errors" serve) with
      | Some n when n <> 0.0 ->
          failures :=
            Printf.sprintf "serve.protocol_errors is %.0f (expected 0)" n
            :: !failures
      | Some _ | None -> ()));
  List.rev !failures

(* The sharded propagation's usefulness floor, checked on the NEW run
   only and only where it can hold: on a multi-domain host every scale
   tier must show at least 1.5x speedup from fanning the atom batch over
   the pool.  On a single-domain host parallel "speedup" is pure
   dispatch overhead — the floor is skipped with a warning instead of a
   false alarm. *)
let scale_floors doc =
  let host_domains =
    match number (Option.bind (member "host" doc) (member "domains")) with
    | Some d -> int_of_float d
    | None -> (
        match number (Option.bind (member "run_all" doc) (member "host_domains")) with
        | Some d -> int_of_float d
        | None -> 1)
  in
  match member "scale" doc with
  | Some (Json.Obj tiers) when tiers <> [] ->
      if host_domains > 1 then
        List.filter_map
          (fun (tier, obj) ->
            match number (member "speedup" obj) with
            | Some s when s < 1.5 ->
                Some
                  (Printf.sprintf "scale.%s.speedup %.2fx is below the 1.5x floor" tier s)
            | Some _ | None -> None)
          tiers
      else begin
        Printf.printf
          "WARNING: single-domain host: multicore speedup floor skipped\n\n";
        []
      end
  | Some _ | None -> []

(* Host fingerprints: warn when the two runs come from visibly
   different machines or toolchains — ratios across hosts are
   indicative only. *)
let host_warning base_doc new_doc =
  match (member "host" base_doc, member "host" new_doc) with
  | Some (Json.Obj b), Some (Json.Obj n) when b <> n ->
      let render fields =
        String.concat ", "
          (List.filter_map
             (fun (k, v) ->
               match v with
               | Json.String s -> Some (k ^ "=" ^ s)
               | Json.Int i -> Some (Printf.sprintf "%s=%d" k i)
               | _ -> None)
             fields)
      in
      Printf.printf "WARNING: host fingerprints differ; ratios are indicative only\n";
      Printf.printf "  baseline: %s\n" (render b);
      Printf.printf "  new:      %s\n\n" (render n)
  | _ -> ()

let () =
  let tol_wall = ref 0.50 in
  let tol_micro = ref 0.20 in
  let floor_ns = ref 100.0 in
  let positional = ref [] in
  let parse_tol v set =
    match float_of_string_opt v with
    | Some f when f >= 0.0 -> set f
    | Some _ | None -> die "bad tolerance %S" v
  in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        parse_tol v (fun f ->
            tol_wall := f;
            tol_micro := f);
        parse rest
    | "--tolerance-wall" :: v :: rest ->
        parse_tol v (fun f -> tol_wall := f);
        parse rest
    | "--tolerance-micro" :: v :: rest ->
        parse_tol v (fun f -> tol_micro := f);
        parse rest
    | "--floor-ns" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> floor_ns := f
        | Some _ | None -> die "bad --floor-ns %S" v);
        parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Printf.eprintf "check_regression: unknown option %s\n" arg;
        usage ()
    | arg :: rest ->
        positional := arg :: !positional;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base_path, new_path =
    match List.rev !positional with [ b; n ] -> (b, n) | _ -> usage ()
  in
  let base_doc = load base_path and new_doc = load new_path in
  let base = watched base_doc in
  let fresh = watched new_doc in
  host_warning base_doc new_doc;
  let regressions = ref 0 in
  Printf.printf "%-50s %12s %12s %8s\n" "key" "baseline" "new" "ratio";
  List.iter
    (fun (key, (old_v, cls)) ->
      match List.assoc_opt key fresh with
      | None -> Printf.printf "%-50s %12.4g %12s   (skipped: not in new run)\n" key old_v "-"
      | Some (new_v, _) when cls = Micro && old_v < !floor_ns ->
          Printf.printf "%-50s %12.4g %12.4g   (skipped: below %.0f ns noise floor)\n" key
            old_v new_v !floor_ns
      | Some (new_v, _) ->
          let max_ratio =
            match cls with
            | Wall -> 1.0 +. !tol_wall
            | Micro -> 1.0 +. !tol_micro
            | Fixed l -> l
          in
          let ratio = if old_v > 0.0 then new_v /. old_v else Float.nan in
          let regressed = (not (Float.is_nan ratio)) && ratio > max_ratio in
          if regressed then incr regressions;
          Printf.printf "%-50s %12.4g %12.4g %7.2fx%s\n" key old_v new_v ratio
            (if regressed then
               Printf.sprintf "  REGRESSION (limit %.2fx)" max_ratio
             else ""))
    base;
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key base) then
        Printf.printf "%-50s %12s %12s   (skipped: not in baseline)\n" key "-" "-")
    fresh;
  List.iter
    (fun msg ->
      incr regressions;
      Printf.printf "%-50s %36s\n" msg "FLOOR VIOLATION")
    (churn_floors new_doc @ serve_floors new_doc @ scale_floors new_doc);
  if !regressions > 0 then begin
    Printf.printf "\n%d key(s) regressed beyond their threshold\n" !regressions;
    exit 1
  end
  else
    Printf.printf "\nno regressions beyond tolerances (wall %.0f%%, micro %.0f%%)\n"
      (100.0 *. !tol_wall) (100.0 *. !tol_micro)
