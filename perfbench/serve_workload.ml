(* The daemon under a closed-loop read load, alternating with write
   phases that apply the next replay epoch.  The server runs in its own
   process, so the load generator's allocation can never stop the server
   loop's domain; one server per world, worlds one after another. *)

module Asn = Rpi_bgp.Asn
module Prefix = Rpi_net.Prefix
module Scenario = Rpi_dataset.Scenario
module Replay = Rpi_serve.Replay
module Registry = Rpi_serve.Registry
module Server = Rpi_serve.Server
module Protocol = Rpi_serve.Protocol
module State = Rpi_ingest.State
module Prng = Rpi_prng.Prng
module M = Measure

(* A run serves each of its worlds for [write_phases] rounds of a timed
   read phase then one write phase; a world's plan holds one replay epoch
   per write phase plus the one applied in set-up.  36 writes a run keep
   the write figures medians over many epochs, not a draw of a few. *)
let write_phases = 6
let plan_epochs = write_phases + 1
let request_pool = 8192

(* Closed loop over one persistent connection.  With two, client and
   server on one CPU, the median request read 22.7-23.4 us in some runs
   and 29.5-30.7 us in others of one build; one connection gives every
   request the same path, and the same throughput. *)
let connections = 1
let verify_requests = 200

type verb = Prefix_status | Report_status | Import_pref | Stats

let verbs = [ Prefix_status; Report_status; Import_pref; Stats ]

let verb_name = function
  | Prefix_status -> "sa_status_prefix"
  | Report_status -> "sa_status_report"
  | Import_pref -> "import_pref"
  | Stats -> "stats"

let verb_index = function Prefix_status -> 0 | Report_status -> 1 | Import_pref -> 2 | Stats -> 3

(* bench --serve's mix: 70% per-prefix sa-status, 15% whole-vantage
   sa-status, 10% import-pref, 5% stats. *)
let draw rng ~vantages ~prefixes =
  let v = Prng.choice rng vantages in
  let r = Prng.float rng 1.0 in
  if r < 0.70 then (Prefix_status, Protocol.Sa_status { asn = v; prefix = Some (Prng.choice rng prefixes) })
  else if r < 0.85 then (Report_status, Protocol.Sa_status { asn = v; prefix = None })
  else if r < 0.95 then (Import_pref, Protocol.Import_pref v)
  else (Stats, Protocol.Stats)

let frame r = Protocol.frame_of_body (Rpi_json.to_string (Protocol.request_to_json r))

(* The fixed list the final gate answers both ways: every whole-report
   verb per vantage plus seeded per-prefix lookups. *)
let verify_list ~seed ~vantages ~prefixes =
  let rng = Prng.create ~seed:(seed + 1) in
  Protocol.Stats
  :: List.concat_map
       (fun v -> [ Protocol.Sa_status { asn = v; prefix = None }; Protocol.Import_pref v ])
       (Array.to_list vantages)
  @ List.init verify_requests (fun _ ->
        Protocol.Sa_status { asn = Prng.choice rng vantages; prefix = Some (Prng.choice rng prefixes) })

let json_list f xs = Rpi_json.List (List.map f xs)
let member k = function Rpi_json.Obj fs -> List.assoc_opt k fs | _ -> None

let num = function
  | Some (Rpi_json.Float f) -> f
  | Some (Rpi_json.Int i) -> float_of_int i
  | _ -> Float.nan

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* ---- server process ---- *)

let child ~seed ~socket ~trace =
  let config = { Scenario.small_config with Scenario.seed } in
  let setup_times = [| 0.0 |] and setup_cpu = [| 0.0 |] in
  let plan =
    Bench_common.build_world setup_times setup_cpu 0 ~trace (fun () ->
        M.span "serve.replay_plan" (fun () ->
            let plan = Replay.plan ~config ~epochs:plan_epochs () in
            ignore (Replay.step plan : bool);
            plan))
  in
  let registry = Replay.registry plan in
  let server = Server.create ~address:(Server.Unix_socket socket) registry in
  let vantages = List.map fst registry.Registry.vantages in
  let prefixes = Rpi_bgp.Rib.prefixes (State.rib registry.Registry.collector) in
  Gc.full_major ();
  ignore (M.reset_hwm () : bool);
  let majors0 = Bench_common.major_gcs () in
  (* The measured reads and writes end when the gate asks for its
     expected answers; the peak is read there. *)
  let peak_kb = ref 0 in
  send stdout
    ("ready "
    ^ Rpi_json.to_string
        (Rpi_json.Obj
           [
             ("setup_wall_s", Rpi_json.Float setup_times.(0));
             ("setup_cpu_s", Rpi_json.Float setup_cpu.(0));
             ("vantages", json_list (fun a -> Rpi_json.Int (Asn.to_int a)) vantages);
             ("prefixes", json_list (fun p -> Rpi_json.String (Prefix.to_string p)) prefixes);
           ]));
  let states = registry.Registry.collector :: List.map snd registry.Registry.vantages in
  let recomputed () =
    List.fold_left (fun acc st -> acc + (State.counters st).State.prefixes_recomputed) 0 states
  in
  (* CPU time since the last write ended: the read phase's, reported with
     the write that follows it. *)
  let cpu_mark = ref (M.cpu_seconds ()) in
  let control () =
    let rec loop op =
      match input_line stdin with
      | exception End_of_file -> Server.shutdown server
      | "quit" -> Server.shutdown server
      | "step" ->
          let position = Replay.position plan in
          let updates =
            match List.nth_opt plan.Replay.steps position with
            | Some s ->
                List.length s.Replay.collector_updates
                + List.fold_left (fun acc (_, u) -> acc + List.length u) 0 s.Replay.vantage_updates
            | None -> 0
          in
          let read_cpu = M.cpu_seconds () -. !cpu_mark in
          let r0 = recomputed () in
          (* Traced runs trace every other write, to measure the overhead. *)
          let traced = trace && op mod 2 = 1 in
          M.set_enabled traced;
          M.set_op op;
          let t0 = M.now () in
          let ok = M.span "ingest.replay_step" (fun () -> Replay.step plan) in
          let dt = M.now () -. t0 in
          M.set_enabled false;
          cpu_mark := M.cpu_seconds ();
          send stdout
            ("stepped "
            ^ Rpi_json.to_string
                (Rpi_json.Obj
                   [
                     ("ok", Rpi_json.Bool ok);
                     ("traced", Rpi_json.Bool traced);
                     ("ms", Rpi_json.Float (1000.0 *. dt));
                     ("read_cpu_s", Rpi_json.Float read_cpu);
                     ("updates", Rpi_json.Int updates);
                     ("recomputed", Rpi_json.Int (recomputed () - r0));
                   ]));
          loop (op + 1)
      | line when String.starts_with ~prefix:"expect" line ->
          peak_kb := M.status_kb "VmHWM";
          let requests =
            verify_list ~seed ~vantages:(Array.of_list vantages) ~prefixes:(Array.of_list prefixes)
          in
          send stdout
            ("expected "
            ^ Rpi_json.to_string
                (json_list
                   (fun r ->
                     Rpi_json.String
                       (Digest.to_hex (Digest.string (fst (Registry.respond_rendered registry r)))))
                   requests));
          loop op
      | _ -> loop op
    in
    loop 1
  in
  let controller = Thread.create control () in
  Server.serve ~jobs:1 server;
  Thread.join controller;
  Server.close server;
  send stdout
    ("final "
    ^ Rpi_json.to_string
        (Rpi_json.Obj
           [
             ("vmhwm_kb", Rpi_json.Int !peak_kb);
             ("major_gcs", Rpi_json.Int (Bench_common.major_gcs () - majors0));
             ("spans", json_list M.span_to_json (M.spans ()));
           ]))

(* ---- load generator ---- *)

let taskset_available () = Sys.file_exists "/usr/bin/taskset" || Sys.file_exists "/bin/taskset"

(* Client and server share one CPU.  Pinned to two CPUs, a closed loop
   keeps both vCPUs busy and the shared host stole ~30% of their time:
   per-phase throughput ranged 4.5k-16k req/s.  On one CPU the loop
   alternates between the processes, steal stayed near 1% and throughput
   rose three- to fourfold.  Separate processes still keep client
   allocation and GC off the server's domain.  The CPU is the last one
   allowed: the first takes the virtual NIC's interrupts. *)
let placement () =
  match List.rev (M.cpus_allowed ()) with
  | cpu :: _ when taskset_available () ->
      let status =
        Unix.create_process "taskset"
          [| "taskset"; "-p"; "-c"; string_of_int cpu; string_of_int (Unix.getpid ()) |]
          Unix.stdin Unix.stderr Unix.stderr
        |> Unix.waitpid [] |> snd
      in
      if status = Unix.WEXITED 0 then Some cpu else None
  | _ -> None

type child = { pid : int; to_child : out_channel; from_child : in_channel; socket : string }

let spawn ~seed ~trace ~cpu =
  (* Relative, so a deep checkout path cannot overflow sun_path. *)
  let socket = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ()) in
  let args =
    [ Sys.executable_name; "--serve-child"; "--seed"; string_of_int seed; "--socket"; socket;
      "--trace"; (if trace then "1" else "0") ]
  in
  let argv =
    Array.of_list
      (match cpu with Some c -> "taskset" :: "-c" :: string_of_int c :: args | None -> args)
  in
  let to_child_r, to_child_w = Unix.pipe ~cloexec:true () in
  let from_child_r, from_child_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv to_child_r from_child_w Unix.stderr in
  Unix.close to_child_r;
  Unix.close from_child_w;
  {
    pid;
    to_child = Unix.out_channel_of_descr to_child_w;
    from_child = Unix.in_channel_of_descr from_child_r;
    socket;
  }

let reply child tag =
  let line = input_line child.from_child in
  let prefix = tag ^ " " in
  if not (String.starts_with ~prefix line) then failwith ("server: unexpected reply " ^ line);
  match Rpi_json.of_string (String.sub line (String.length prefix) (String.length line - String.length prefix)) with
  | Ok j -> j
  | Error e -> failwith ("server: bad reply: " ^ e)

(* Ask the server to drain and exit; its last words carry its spans and
   peak memory.  Waits for the process in every case. *)
let stop child =
  (try send child.to_child "quit" with Sys_error _ -> ());
  let final = try Some (reply child "final") with End_of_file | Failure _ | Sys_error _ -> None in
  close_out_noerr child.to_child;
  close_in_noerr child.from_child;
  ignore (Unix.waitpid [] child.pid);
  (try Sys.remove child.socket with Sys_error _ -> ());
  final

type measured = {
  setup_wall_s : float;
  setup_cpu_s : float;
  mix : verb array;  (** Verb of each pooled request. *)
  phases : (int * Loadgen.result) list;  (** First pool index and result per read phase. *)
  cpu_per_request : float list;  (** Server CPU seconds per request, per read phase. *)
  publish : float list;
  traced_steps : float list;
  plain_steps : float list;  (** Replay.step seconds per applied update, traced and not. *)
  updates : float list;
  recomputed : float list;  (** Prefixes recomputed per applied update, per step. *)
  gate_failures : int;
  metrics_body : string;
}

let measure child ~seed ~seconds ~pinned =
  let ready = reply child "ready" in
  let list k f = match member k ready with Some (Rpi_json.List l) -> List.filter_map f l | _ -> [] in
  let setup_wall_s = num (member "setup_wall_s" ready) in
  let setup_cpu_s = num (member "setup_cpu_s" ready) in
  let vantages =
    Array.of_list (list "vantages" (function Rpi_json.Int a -> Some (Asn.of_int a) | _ -> None))
  in
  let prefixes =
    Array.of_list
      (list "prefixes" (function Rpi_json.String p -> Result.to_option (Prefix.of_string p) | _ -> None))
  in
  Printf.printf "serve: seed %d, %d vantages, %d prefixes%s\n%!" seed (Array.length vantages)
    (Array.length prefixes)
    (match pinned with
    | Some cpu -> Printf.sprintf ", client and server on CPU %d" cpu
    | None -> ", unpinned");
  let address = Server.Unix_socket child.socket in
  let pool = Loadgen.create ~connect:(fun () -> Server.connect address) connections in
  (* Requests are drawn and encoded before any phase starts; phases walk
     the seeded list cyclically, so the timed loop only sends and
     receives. *)
  let rng = Prng.create ~seed in
  let drawn = Array.init request_pool (fun _ -> draw rng ~vantages ~prefixes) in
  let frames = Array.map (fun (_, q) -> frame q) drawn in
  let phase_s = seconds /. float_of_int write_phases in
  let cursor = ref 0 and phases = ref [] and cpu_per_request = ref [] in
  let publish = ref [] and traced_steps = ref [] and plain_steps = ref [] in
  let updates = ref [] and recomputed = ref [] in
  for ph = 1 to write_phases do
    Bench_common.calibrate ();
    let deadline = M.now () +. phase_s in
    let first = !cursor in
    let steal_ph = M.steal_ticks () in
    let r =
      Loadgen.phase pool ~next:(fun i ->
          if M.now () >= deadline then None else Some frames.((first + i) mod request_pool))
    in
    let k = Array.length r.Loadgen.latencies in
    cursor := (first + k) mod request_pool;
    phases := (first, r) :: !phases;
    let sorted = M.sorted r.Loadgen.latencies in
    Printf.printf "serve: phase %2d: %6d requests, %8.0f req/s, p50 %.4f ms, p99.9 %.4f ms, steal %d\n%!"
      ph k
      (float_of_int k /. r.Loadgen.wall)
      (1000.0 *. M.percentile sorted ~permille:500)
      (1000.0 *. M.percentile sorted ~permille:999)
      (M.steal_ticks () - steal_ph);
    send child.to_child "step";
    let st = reply child "stepped" in
    match member "ok" st with
    | Some (Rpi_json.Bool true) ->
        let ms = num (member "ms" st) and u = num (member "updates" st) in
        publish := ms :: !publish;
        cpu_per_request := (num (member "read_cpu_s" st) /. float_of_int (max 1 k)) :: !cpu_per_request;
        let per_update = ms /. 1000.0 /. Float.max 1.0 u in
        (match member "traced" st with
        | Some (Rpi_json.Bool true) -> traced_steps := per_update :: !traced_steps
        | _ -> plain_steps := per_update :: !plain_steps);
        updates := u :: !updates;
        recomputed := (num (member "recomputed" st) /. Float.max 1.0 u) :: !recomputed
    | _ -> failwith "server: replay plan exhausted"
  done;
  (* Gate: after the last write, a fixed list over the socket must be
     byte-identical to Registry.respond_rendered on the final snapshot. *)
  send child.to_child "expect";
  let expected =
    match reply child "expected" with
    | Rpi_json.List l -> Array.of_list (List.map (function Rpi_json.String s -> s | _ -> "") l)
    | _ -> [||]
  in
  let checks = Array.of_list (List.map frame (verify_list ~seed ~vantages ~prefixes)) in
  let got = Array.make (Array.length checks) "" in
  let v =
    Loadgen.phase pool
      ~on_body:(fun i body -> got.(i) <- Digest.to_hex (Digest.string body))
      ~next:(Loadgen.frames checks)
  in
  let mismatches =
    if Array.length expected <> Array.length checks then Array.length checks
    else Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
        (Array.mapi (fun i e -> not (String.equal e got.(i))) expected)
  in
  if mismatches > 0 || v.Loadgen.failed > 0 then
    Printf.printf "serve gate FAILED: %d of %d verification responses differ\n%!" mismatches
      (Array.length checks);
  let metrics_body = ref "" in
  ignore
    (Loadgen.phase pool ~on_body:(fun _ b -> metrics_body := b)
       ~next:(Loadgen.frames [| frame Protocol.Metrics |])
      : Loadgen.result);
  Loadgen.close pool;
  {
    setup_wall_s;
    setup_cpu_s;
    mix = Array.map fst drawn;
    phases = List.rev !phases;
    cpu_per_request = !cpu_per_request;
    publish = !publish;
    traced_steps = !traced_steps;
    plain_steps = !plain_steps;
    updates = !updates;
    recomputed = !recomputed;
    gate_failures = mismatches + v.Loadgen.failed;
    metrics_body = !metrics_body;
  }

(* Spans of world [k]'s server, renumbered so worlds cannot collide:
   ids and ops move to their own ranges, set-up op -1 becomes -(k+1). *)
let renumber k (sp : M.span) =
  let base = (k + 1) * 1_000_000 in
  {
    sp with
    M.id = base + sp.M.id;
    parent = (if sp.M.parent < 0 then sp.M.parent else base + sp.M.parent);
    op = (if sp.M.op < 0 then -(k + 1) else base + sp.M.op);
  }

let run ~seed ~seconds ~trace =
  let pinned = placement () in
  let host = Bench_common.host_start () in
  let worlds = Bench_common.worlds in
  let per_world =
    List.init worlds (fun k ->
        let child = spawn ~seed:(Bench_common.world_seed ~seed k) ~trace ~cpu:pinned in
        let m =
          match
            measure child ~seed:(Bench_common.world_seed ~seed k)
              ~seconds:(seconds /. float_of_int worlds) ~pinned
          with
          | m -> m
          | exception e ->
              ignore (stop child);
              raise e
        in
        let final = stop child in
        let spans =
          match Option.bind final (member "spans") with
          | Some (Rpi_json.List l) -> List.filter_map M.span_of_json l
          | _ -> []
        in
        ( m,
          num (Option.bind final (member "vmhwm_kb")),
          List.map (renumber k) spans,
          int_of_float (num (Option.bind final (member "major_gcs"))) ))
  in
  let ms = List.map (fun (m, _, _, _) -> m) per_world in
  let server_spans = List.concat_map (fun (_, _, sp, _) -> sp) per_world in
  let peaks = List.map (fun (_, hwm, _, _) -> hwm /. 1024.0) per_world in
  let all f = List.concat_map f ms in
  let phases = all (fun m -> List.map (fun (first, r) -> (m.mix, first, r)) m.phases) in
  let publish = all (fun m -> m.publish) in
  let gate_failures = List.fold_left (fun acc m -> acc + m.gate_failures) 0 ms in
  (* Server counters from each world's metrics verb, summed. *)
  let counter key =
    List.fold_left
      (fun acc m ->
        let j = Result.to_option (Rpi_json.of_string m.metrics_body) in
        match Option.bind j (member key) with
        | Some (Rpi_json.Obj fs) -> acc +. List.fold_left (fun a (_, v) -> a +. num (Some v)) 0.0 fs
        | v -> acc +. num v)
      0.0 ms
  in
  (* Per-request figures, with the verb each request carried. *)
  let lat = Array.concat (List.map (fun (_, _, r) -> r.Loadgen.latencies) phases) in
  let bytes = Array.concat (List.map (fun (_, _, r) -> r.Loadgen.bytes) phases) in
  let verb_of =
    Array.concat
      (List.map
         (fun (mix, first, r) ->
           Array.init (Array.length r.Loadgen.latencies) (fun i -> mix.((first + i) mod request_pool)))
         phases)
  in
  let n = Array.length lat in
  let request_failures = List.fold_left (fun acc (_, _, r) -> acc + r.Loadgen.failed) 0 phases in
  let read_wall = List.fold_left (fun acc (_, _, r) -> acc +. r.Loadgen.wall) 0.0 phases in
  let of_verb v a =
    let out = ref [] in
    Array.iteri (fun i x -> if verb_of.(i) = v then out := x :: !out) a;
    Array.of_list !out
  in
  let served = counter "requests_total" in
  let busy = counter "busy_seconds_total" in
  let errors = counter "errors_total" in
  let sheds = counter "sheds_total" in
  let failed =
    request_failures + gate_failures
    + if errors > 0.0 || sheds > 0.0 || Float.is_nan errors then 1 else 0
  in
  let ms_of a = 1000.0 *. a in
  let med l = M.median (Array.of_list l) in
  let mean a = Array.fold_left (fun acc b -> acc +. float_of_int b) 0.0 a /. float_of_int (max 1 (Array.length a)) in
  Printf.printf "serve: %d requests, %d write phases, publish (Replay.step) median %.3f ms\n" n
    (List.length publish) (med publish);
  List.iter
    (fun v ->
      let l = M.sorted (of_verb v lat) in
      Printf.printf "serve: verb %-17s share %.3f  mean response %.0f bytes  p50 %.4f ms  p99 %.4f ms\n"
        (verb_name v)
        (float_of_int (Array.length l) /. float_of_int (max 1 n))
        (mean (of_verb v bytes))
        (ms_of (M.percentile l ~permille:500))
        (ms_of (M.percentile l ~permille:990)))
    verbs;
  (* The server processes' major collections, not the load generator's. *)
  let noise =
    Bench_common.host_noise host
      ~major_gcs:(List.fold_left (fun acc (_, _, _, g) -> acc + g) 0 per_world)
      (Bench_common.setup_noise
         ~wall:(Array.of_list (List.map (fun m -> m.setup_wall_s) ms))
         ~cpu:(Array.of_list (List.map (fun m -> m.setup_cpu_s) ms))
      @ [
        ("world_peaks_mb", Bench_common.float_list (Array.of_list peaks));
        ( "placement",
          Rpi_json.String
            (match pinned with
            | Some cpu -> Printf.sprintf "client and server on CPU %d" cpu
            | None -> "unpinned") );
        ])
  in
  let metric = Bench_common.metric in
  let e2e =
    (* Host speed shifts by up to ~40% for seconds at a time, and requests
       of one verb have a narrow latency spread, so the median of a run's
       pooled requests jumps between the fast and slow modes as their
       shares cross one half.  The mean over phases of each phase's median
       moves in proportion instead. *)
    Bench_common.e2e ~centre:Bench_common.mean
      ~kernel:(Array.of_list !Bench_common.kernel_times)
      ~setup_cpu:(Array.of_list (List.map (fun m -> m.setup_cpu_s) ms))
      ~cpu:(Array.of_list (all (fun m -> m.cpu_per_request)))
      ~p50:(Array.of_list (List.map (fun (_, _, r) -> M.median r.Loadgen.latencies) phases))
      ~lat ~top:999
      ~ops_per_s:(float_of_int (n - request_failures) /. read_wall)
      ~peaks
  in
  let per_layer =
    if not trace then []
    else
      Bench_common.layer_metrics (M.layers server_spans)
      @ List.map
          (fun v ->
            let l = of_verb v lat in
            metric ("serve.verb." ^ verb_name v ^ ".p50_ms") "ms" (ms_of (M.median l)) (Array.length l))
          verbs
      @ [
          metric "serve.response_bytes" "byte" (mean bytes) n;
          metric "serve.busy_us_per_req" "us" (1e6 *. busy /. served) (int_of_float served);
          metric "serve.errors" "count" errors 1;
          metric "serve.sheds" "count" sheds 1;
          metric "ingest.updates_per_epoch" "count" (med (all (fun m -> m.updates))) (List.length publish);
          metric "ingest.recomputed_per_update" "ratio" (med (all (fun m -> m.recomputed)))
            (List.length publish);
          (* Traced and untraced writes apply different epochs: compare
             time per applied update. *)
          Bench_common.overhead_metric
            ~units:(med (all (fun m -> m.updates)))
            ~traced:(all (fun m -> m.traced_steps))
            ~plain:(all (fun m -> m.plain_steps))
            ();
        ]
  in
  { Bench_common.e2e; per_layer; attempted = n + 1; failed; noise; spans = server_spans }
