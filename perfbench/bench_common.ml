module M = Measure

type metric = { name : string; unit_ : string; value : float; samples : int }

type outcome = {
  e2e : metric list;  (** Reported by untraced runs. *)
  per_layer : metric list;  (** Reported by traced runs. *)
  attempted : int;
  failed : int;
  noise : (string * Rpi_json.t) list;
      (** Host-noise records printed beside the metrics; never used to
          drop a run. *)
  spans : M.span list;  (** Everything the traced run recorded. *)
}

let metric name unit_ value samples = { name; unit_; value; samples }

(* A run measures several generated worlds, one after another, so a
   figure is not one world's draw: worlds of one size differ in set-up
   cost by up to ~1.7x (0.5-0.9 s CPU for a 1k chain world), and pooling
   them is what keeps the spread across seeds inside the bounds.  churn
   and serve use six worlds, chain four (its ops are longer).  Set-up is
   timed once per world and reported as the median of its CPU time (user
   + system): set-ups last about a second, and time the host gives to
   other guests lands in their wall time.  The wall times are kept as
   host noise. *)
let worlds = 6

(* No two seeds share a world. *)
let world_seed ~seed k = (seed * worlds) + k

(* Host speed.  This host's speed drifts with its other guests: within
   ten minutes, runs of one build went from 2.8 to 1.8 s of CPU per chain
   op, from 62 to 86 churn epochs/s and from 53k to 80k served
   requests/s, all together, so raw times from two sets of runs differ by
   more than any bound.  A fixed kernel that shares no code with the
   repository (xorshift fill and heap sort of 64k ints, ~20 ms) runs
   between the timed ops, tens of times a run: before each world's
   set-up, each chain op, every twelfth churn epoch and each serve read
   phase (in the load generator, on the server's CPU).  A run's times are
   reported at the speed at which the kernel takes [kernel_nominal]
   seconds of CPU: scaled by [kernel_nominal] over the median kernel
   time.  Over four seeds in a drifting stretch this cut the spread of
   serve's p50 from 0.29 to 0.03 and churn's from 0.14 to 0.01.  The raw
   figures are printed beside the scaled ones. *)
let kernel_nominal = 0.02
let kernel_times = ref []
let kernel_buf = Array.make 65536 0

(* Allocates nothing, so it can run between timed ops without leaving
   them garbage. *)
let kernel () =
  let x = ref 0x2545F4914F6CDD1D in
  for i = 0 to Array.length kernel_buf - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    kernel_buf.(i) <- !x land 0xFFFFFF
  done;
  Array.sort Int.compare kernel_buf;
  kernel_buf.(0)

let calibrate () =
  let c0 = M.cpu_seconds () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  kernel_times := (M.cpu_seconds () -. c0) :: !kernel_times

(* Build world [k] (timed into [times.(k)], wall and CPU seconds) after
   the previous one has been dropped and collected. *)
let build_world times cpu k ~trace build =
  calibrate ();
  Gc.full_major ();
  M.set_enabled trace;
  M.set_op (-(k + 1));
  let c0 = M.cpu_seconds () and t0 = M.now () in
  let w = build () in
  times.(k) <- M.now () -. t0;
  cpu.(k) <- M.cpu_seconds () -. c0;
  M.set_enabled false;
  w

(* Peak memory of the measured intervals only.  Checks and gates run
   between intervals: fold the peak so far into [peak] before one, and
   restart the count after it, once its garbage is collected. *)
let peak_mb () = float_of_int (M.status_kb "VmHWM") /. 1024.0
let fold_peak peak = peak := Float.max !peak (peak_mb ())

(* A run's peak_rss_mb is the mean of its worlds' peaks, each the VmHWM
   the process reached over that world's measured intervals.  A world's
   peak repeats within ~0.2 MB for its seed, but worlds differ (chain's
   from ~370 to ~490 MB; serve's small worlds fall in two groups, ~285 and
   ~330-360 MB), and the mean follows the mix of worlds more smoothly than
   their median or maximum. *)
let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))
let run_peak peaks = mean (Array.of_list peaks)

let restart_peak () =
  Gc.full_major ();
  ignore (M.reset_hwm () : bool)

(* Host-noise records, read around the measured part of a run. *)
type host = { steal0 : int; majors0 : int }

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections
let host_start () = { steal0 = M.steal_ticks (); majors0 = major_gcs () }

let host_noise ?major_gcs:majors h extra =
  let kernel = Array.of_list (List.rev !kernel_times) in
  ( "affinity",
    Rpi_json.String (String.concat "," (List.map string_of_int (M.cpus_allowed ()))) )
  :: ("steal_ticks", Rpi_json.Int (M.steal_ticks () - h.steal0))
  :: ("major_gcs", Rpi_json.Int (Option.value majors ~default:(major_gcs () - h.majors0)))
  :: ("kernel_cpu_s", Rpi_json.List (Array.to_list (Array.map (fun x -> Rpi_json.Float x) kernel)))
  :: extra

let float_list a = Rpi_json.List (Array.to_list (Array.map (fun x -> Rpi_json.Float x) a))

(* Per-world set-up, wall and CPU: the gap is host time lost to others. *)
let setup_noise ~wall ~cpu = [ ("setup_wall_s", float_list wall); ("setup_cpu_s", float_list cpu) ]

(* The end-to-end metrics: the same six for every workload, over what the
   workload calls an op (a chain pass, a churn epoch, a served request).
   [lat] holds each op's wall seconds, +infinity for a failed op, and
   gives the tail percentile by the ten-beyond rule ([top] at most).
   [cpu] and [p50] are CPU and median wall seconds per op, summarised by
   [centre]: chain and churn pass per-op samples and take their median;
   serve passes one figure per read phase and takes their mean.  Times
   are scaled to the kernel's nominal speed by [kernel]'s median. *)
let e2e ~centre ~kernel ~setup_cpu ~cpu ~p50 ~lat ~top ~ops_per_s ~peaks =
  let n = Array.length lat in
  let sorted = M.sorted lat and tail = M.tail ~top n in
  let scale = kernel_nominal /. M.median kernel in
  let raw =
    [
      metric "setup_s" "s" (M.median setup_cpu) (Array.length setup_cpu);
      metric "cpu_ms" "ms" (1000.0 *. centre cpu) (Array.length cpu);
      metric "p50_ms" "ms" (1000.0 *. centre p50) n;
      metric "tail_ms" "ms" (1000.0 *. M.percentile sorted ~permille:tail) n;
      metric "ops_per_s" "1/s" ops_per_s n;
    ]
  in
  Printf.printf "tail_ms is the %s of %d ops (%d beyond it)\n" (M.permille_label tail) n
    (M.beyond ~n ~permille:tail);
  Printf.printf "host speed: kernel median %.2f ms CPU of %d runs, times scaled by %.4f; raw:"
    (1000.0 *. M.median kernel) (Array.length kernel) scale;
  List.iter (fun m -> Printf.printf " %s %.6g" m.name m.value) raw;
  print_newline ();
  List.map
    (fun m ->
      if String.equal m.unit_ "1/s" then { m with value = m.value /. scale }
      else { m with value = m.value *. scale })
    raw
  @ [ metric "peak_rss_mb" "MB" (run_peak peaks) (List.length peaks) ]

(* Every per-layer metric a traced run prints, whatever the workload: the
   four span figures of each layer, then the layers' own counters.  A
   workload reports 0 for a layer it never calls. *)
let layers =
  [
    "dataset.build"; "sim.propagate"; "sim.vantage"; "mrt.write"; "mrt.parse"; "relinfer.gao";
    "core.import_infer"; "core.export_infer"; "core.peer_export"; "core.community_verify";
    "ingest.registry"; "sim.repropagate"; "sim.batch_check"; "serve.replay_plan";
    "ingest.replay_step";
  ]

let span_units = [ ("ms", "ms"); ("alloc_mw", "Mword"); ("major_gcs", "count"); ("rss_growth_mb", "MB") ]

let per_layer_declared =
  List.concat_map (fun l -> List.map (fun (s, u) -> (l ^ "." ^ s, u)) span_units) layers
  @ [
      ("sim.propagate.steps", "count");
      ("sim.propagate.ns_per_as_atom", "ns");
      ("sim.vantage.routes", "count");
      ("mrt.write.mb_per_s", "MB/s");
      ("mrt.parse.mb_per_s", "MB/s");
      ("mrt.parse.routes", "count");
      ("relinfer.gao.edges", "count");
      ("relinfer.gao.accuracy", "share");
      ("core.export_infer.sa_prefixes", "count");
      ("ingest.registry.prefixes_recomputed", "count");
      ("sim.repropagate.steps", "count");
      ("sim.repropagate.alloc_words", "word");
      ("churn.link_epoch_share", "share");
      ("serve.verb.sa_status_prefix.p50_ms", "ms");
      ("serve.verb.sa_status_report.p50_ms", "ms");
      ("serve.verb.import_pref.p50_ms", "ms");
      ("serve.verb.stats.p50_ms", "ms");
      ("serve.response_bytes", "byte");
      ("serve.busy_us_per_req", "us");
      ("serve.errors", "count");
      ("serve.sheds", "count");
      ("ingest.updates_per_epoch", "count");
      ("ingest.recomputed_per_update", "ratio");
      ("trace.overhead_ms", "ms");
    ]

(* The declared list in order, filled from what the workload measured. *)
let complete_per_layer measured =
  List.iter
    (fun m ->
      match List.assoc_opt m.name per_layer_declared with
      | Some u when String.equal u m.unit_ -> ()
      | _ -> failwith (Printf.sprintf "perfbench: undeclared per-layer metric %s (%s)" m.name m.unit_))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> String.equal m.name name) measured with
      | Some m -> m
      | None -> metric name unit_ 0.0 0)
    per_layer_declared

let layer_metrics layers =
  List.concat_map
    (fun (l : M.layer) ->
      List.map2
        (fun (s, u) v -> metric (l.M.layer ^ "." ^ s) u v l.M.ops)
        span_units
        [ l.M.ms; l.M.alloc_mw; l.M.gcs; l.M.rss_growth_mb ])
    layers

(* Traced minus untraced median op time, in seconds, from alternating ops
   of the traced run.  Where the alternating ops do different work (churn
   epochs, replay writes), both sides are seconds per unit of work and
   [units] scales the difference back to a median op. *)
let overhead_metric ?(units = 1.0) ~traced ~plain () =
  let med l = M.median (Array.of_list l) in
  metric "trace.overhead_ms" "ms"
    (1000.0 *. units *. (med traced -. med plain))
    (min (List.length traced) (List.length plain))

(* Timings are printed with every digit the float carries.  JSON has no
   infinity: a tail made of failed requests prints as the largest double
   (the run is already marked incorrect by its failure count). *)
let json_number v =
  if Float.is_nan v then Rpi_json.Null
  else if Float.is_finite v then Rpi_json.Float v
  else Rpi_json.Float (Float.copy_sign Float.max_float v)

(* Spans are kept in memory during the run and written out at its end. *)
let trace_dir = ".bench_out"

let write_spans ~workload ~seed spans =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path = Filename.concat trace_dir (Printf.sprintf "spans-%s-seed%d.ndjson" workload seed) in
  let oc = open_out path in
  List.iter (fun s -> Rpi_json.to_channel oc (M.span_to_json s)) spans;
  close_out oc;
  Printf.printf "%s: %d spans written to %s\n" workload (List.length spans) path

let report ~workload ~seed ~trace outcome =
  if trace then write_spans ~workload ~seed outcome.spans;
  let metrics = if trace then complete_per_layer outcome.per_layer else outcome.e2e in
  Printf.printf "%-44s %18s  %-7s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-44s %18.6f  %-7s %d\n" m.name m.value m.unit_ m.samples)
    metrics;
  Printf.printf "%s: %d ops attempted, %d failed\n" workload outcome.attempted outcome.failed;
  print_endline
    (Rpi_json.to_string
       (Rpi_json.Obj
          [ ("workload", Rpi_json.String workload); ("host_noise", Rpi_json.Obj outcome.noise) ]));
  let correct = outcome.failed = 0 in
  print_endline
    (Rpi_json.to_string
       (Rpi_json.Obj
          [
            ("correct", Rpi_json.Bool correct);
            ("attempted", Rpi_json.Int outcome.attempted);
            ("failed", Rpi_json.Int outcome.failed);
            ( "metrics",
              Rpi_json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Rpi_json.Obj
                         [ ("value", json_number m.value); ("unit", Rpi_json.String m.unit_) ] ))
                   metrics) );
          ]));
  correct
