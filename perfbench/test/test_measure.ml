(* Self-tests for perfbench's measurement code: percentile ranks and the
   ten-beyond tail rule, span self time, the VmHWM reset, failure
   accounting, and closed-loop latency against a stub server whose delay
   is known. *)

module M = Measure
module Protocol = Rpi_serve.Protocol

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let percentiles () =
  check "rank p99 of 1000" (M.rank ~n:1000 ~permille:990 = 990);
  check "rank p50 of 1" (M.rank ~n:1 ~permille:500 = 1);
  check "rank p50 of 3" (M.rank ~n:3 ~permille:500 = 2);
  check "rank p100 of 7" (M.rank ~n:7 ~permille:1000 = 7);
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "percentile p50 of 1..100" (M.percentile a ~permille:500 = 50.0);
  check "percentile p99 of 1..100" (M.percentile a ~permille:990 = 99.0);
  check "percentile p99.9 of 1..100 is the max" (M.percentile a ~permille:999 = 100.0);
  check "percentile of empty is nan" (Float.is_nan (M.percentile [||] ~permille:500));
  check "median of unsorted" (M.median [| 5.0; 1.0; 3.0 |] = 3.0);
  check "ten beyond p99 at 1000" (M.beyond ~n:1000 ~permille:990 = 10);
  check "tail p99 when ten lie beyond" (M.tail ~top:990 1000 = 990);
  check "tail falls to p98 at 999" (M.tail ~top:990 999 = 980);
  check "tail p98 at 500" (M.tail ~top:990 500 = 980 && M.beyond ~n:500 ~permille:980 = 10);
  check "tail p90 at 100" (M.tail ~top:990 100 = 900);
  check "tail median when too few" (M.tail ~top:990 12 = 500);
  check "tail p99.9 at 10000" (M.tail ~top:999 10000 = 999 && M.beyond ~n:10000 ~permille:999 = 10);
  check "tail p99.9 falls to p99 at 9999" (M.tail ~top:999 9999 = 990);
  check "labels" (M.permille_label 990 = "p99" && M.permille_label 999 = "p99.9");
  let with_failures = M.sorted [| 3.0; infinity; 1.0; 2.0 |] in
  check "failures sort as +inf" (with_failures.(3) = infinity && with_failures.(0) = 1.0);
  check "cpu list parse" (M.parse_cpu_list "0-2,5" = [ 0; 1; 2; 5 ]);
  check "cpu list parse single" (M.parse_cpu_list "3\n" = [ 3 ])

let mk id parent start stop =
  {
    M.id;
    name = "s" ^ string_of_int id;
    parent;
    op = 1;
    start;
    stop;
    alloc_words = 0.0;
    major_gcs = 0;
    rss_start_kb = 0;
    peak_kb = 0;
  }

let self_time () =
  let parent = mk 0 (-1) 0.0 10.0 in
  let kids = [ mk 1 0 1.0 3.0; mk 2 0 2.0 5.0; mk 3 0 7.0 8.0 ] in
  check "self time minus union of children" (M.self_time parent kids = 5.0);
  check "self time of a leaf" (M.self_time (mk 4 (-1) 2.0 2.5) [] = 0.5);
  check "children clipped to the parent"
    (M.self_time parent [ mk 5 0 (-1.0) 2.0; mk 6 0 9.0 12.0 ] = 7.0);
  (* Live spans: nesting sets parents and the layer table uses self time. *)
  M.clear ();
  M.set_enabled true;
  M.set_op 7;
  M.span "outer" (fun () ->
      Unix.sleepf 0.02;
      M.span "inner" (fun () -> Unix.sleepf 0.03));
  M.set_enabled false;
  M.span "untraced" ignore;
  let spans = M.spans () in
  check "two spans recorded" (List.length spans = 2);
  (match spans with
  | [ outer; inner ] ->
      check "inner's parent is outer" (inner.M.parent = outer.M.id && outer.M.parent = -1);
      check "op id recorded" (inner.M.op = 7);
      let layers = M.layers spans in
      let ms name = (List.find (fun l -> String.equal l.M.layer name) layers).M.ms in
      let dur s = 1000.0 *. (s.M.stop -. s.M.start) in
      check "outer self time excludes inner"
        (Float.abs (ms "outer" -. (dur outer -. dur inner)) < 1e-6 && ms "outer" >= 19.0);
      check "inner self time is its duration" (ms "inner" = dur inner && ms "inner" >= 29.0);
      check "span json round trip"
        (List.for_all (fun s -> M.span_of_json (M.span_to_json s) = Some s) spans)
  | _ -> ());
  M.clear ()

let hwm_reset () =
  if not (M.reset_hwm ()) then print_endline "skip VmHWM reset (clear_refs not writable)"
  else begin
    let block = Bytes.make (96 * 1024 * 1024) 'x' in
    let hwm_with_block = M.status_kb "VmHWM" in
    check "block raised VmHWM" (hwm_with_block >= 96 * 1024);
    ignore (Sys.opaque_identity block);
    Gc.full_major ();
    ignore (M.reset_hwm () : bool);
    let after = M.status_kb "VmHWM" in
    check "reset drops VmHWM to the current RSS" (after < hwm_with_block - (64 * 1024));
    (* A span around an allocation sees its growth. *)
    M.set_enabled true;
    M.span "grow" (fun () -> ignore (Sys.opaque_identity (Bytes.make (48 * 1024 * 1024) 'y')));
    M.set_enabled false;
    (match M.spans () with
    | [ s ] -> check "span rss growth covers the block" (s.M.peak_kb - s.M.rss_start_kb >= 40 * 1024)
    | _ -> check "one grow span" false);
    M.clear ()
  end

(* A stub server: every frame is answered after [delay] seconds, except
   bodies containing "shed", answered at once with the overloaded frame.
   Records the most requests ever in flight overall, and counts requests
   that arrived on a connection before the previous answer was sent. *)
type stub = {
  lock : Mutex.t;
  mutable in_flight : int;
  mutable max_in_flight : int;
  mutable pipelined : int;
}

let stub_server ~delay ~path =
  let stub = { lock = Mutex.create (); in_flight = 0; max_in_flight = 0; pipelined = 0 } in
  (try Sys.remove path with Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 16;
  let with_lock f =
    Mutex.lock stub.lock;
    f ();
    Mutex.unlock stub.lock
  in
  let serve fd =
    let rec loop () =
      match Protocol.read_frame fd with
      | Ok (Some body) ->
          with_lock (fun () ->
              stub.in_flight <- stub.in_flight + 1;
              stub.max_in_flight <- max stub.max_in_flight stub.in_flight);
          let shed =
            try
              ignore (Str.search_forward (Str.regexp_string "shed") body 0);
              true
            with Not_found -> false
          in
          if not shed then Unix.sleepf delay;
          let early = match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> 0 | _ -> 1 in
          with_lock (fun () ->
              stub.in_flight <- stub.in_flight - 1;
              stub.pipelined <- stub.pipelined + early);
          if shed then Protocol.write_json fd Protocol.overloaded_response
          else Protocol.write_frame fd "{\"ok\":true}";
          loop ()
      | Ok None | Error _ -> Unix.close fd
    in
    loop ()
  in
  let rec accept_loop () =
    match Unix.accept listener with
    | fd, _ ->
        ignore (Thread.create serve fd : Thread.t);
        accept_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  ignore (Thread.create accept_loop () : Thread.t);
  (stub, fun () -> Unix.close listener)

let closed_loop () =
  let delay = 0.02 in
  let path = Printf.sprintf "stub-%d.sock" (Unix.getpid ()) in
  let stub, stop = stub_server ~delay ~path in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let frame s = Protocol.frame_of_body s in
  (* One connection: each request waits the stub's delay, and requests
     never overlap. *)
  let pool = Loadgen.create ~connect 1 in
  let r = Loadgen.phase pool ~next:(Loadgen.frames (Array.make 10 (frame "{\"q\":1}"))) in
  check "ten requests answered" (Array.length r.Loadgen.latencies = 10 && r.Loadgen.failed = 0);
  check "each latency covers the stub delay"
    (Array.for_all (fun l -> l >= delay && l < delay +. 2.0) r.Loadgen.latencies);
  check "serial wall covers ten delays" (r.Loadgen.wall >= 10.0 *. delay);
  check "bytes counted" (Array.for_all (fun b -> b = String.length "{\"ok\":true}") r.Loadgen.bytes);
  Loadgen.close pool;
  (* Two connections: at most one request in flight per connection. *)
  let pool = Loadgen.create ~connect 2 in
  let r = Loadgen.phase pool ~next:(Loadgen.frames (Array.make 10 (frame "{\"q\":2}"))) in
  check "closed loop keeps one request per connection"
    (stub.pipelined = 0 && stub.max_in_flight <= 2);
  check "two-connection wall covers five delays" (r.Loadgen.wall >= 5.0 *. delay);
  (* Shed requests are failures and sort as +inf. *)
  let reqs = Array.init 6 (fun i -> frame (if i mod 3 = 1 then "{\"q\":\"shed\"}" else "{\"q\":3}")) in
  let r = Loadgen.phase pool ~next:(Loadgen.frames reqs) in
  check "shed requests counted as failed" (r.Loadgen.failed = 2);
  check "shed requests carry +inf latency"
    (r.Loadgen.latencies.(1) = infinity && r.Loadgen.latencies.(4) = infinity
    && Float.is_finite r.Loadgen.latencies.(0));
  let sorted = M.sorted r.Loadgen.latencies in
  check "tail of a failing phase is +inf" (M.percentile sorted ~permille:990 = infinity);
  (* A deadline-driven source stops issuing and drains what is in flight. *)
  let issued = ref 0 in
  let r =
    Loadgen.phase pool ~next:(fun i ->
        if i >= 4 then None
        else begin
          incr issued;
          Some (frame "{\"q\":4}")
        end)
  in
  check "open-ended source drains" (!issued = 4 && Array.length r.Loadgen.latencies = 4);
  Loadgen.close pool;
  stop ();
  try Sys.remove path with Sys_error _ -> ()

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  percentiles ();
  self_time ();
  hwm_reset ();
  closed_loop ();
  if !failures > 0 then begin
    Printf.printf "%d measurement self-test(s) failed\n" !failures;
    exit 1
  end
