let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Integer arithmetic throughout: [0.99 *. 1000.] is not exactly 990, and
   a ceiling over it would shift the rank by one. *)
let rank ~n ~permille = max 1 (min n (((permille * n) + 999) / 1000))

let percentile a ~permille =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~n ~permille - 1)

let median a = percentile (sorted a) ~permille:500
let beyond ~n ~permille = n - rank ~n ~permille

let tail ~top n =
  let rec go p =
    if p <= 500 then 500 else if beyond ~n ~permille:p >= 10 then p else go (((p - 1) / 10) * 10)
  in
  go top

let permille_label p = if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10) else Printf.sprintf "p%.1f" (float_of_int p /. 10.0)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec go () =
            let k = input ic chunk 0 4096 in
            if k > 0 then begin
              Buffer.add_subbytes buf chunk 0 k;
              go ()
            end
          in
          go ();
          Some (Buffer.contents buf))

let status_field field =
  match read_file "/proc/self/status" with
  | None -> None
  | Some text ->
      let prefix = field ^ ":" in
      List.find_map
        (fun line ->
          if String.starts_with ~prefix line then
            Some
              (String.trim
                 (String.sub line (String.length prefix)
                    (String.length line - String.length prefix)))
          else None)
        (String.split_on_char '\n' text)

let status_kb field =
  match status_field field with
  | None -> 0
  | Some v -> (
      match String.split_on_char ' ' v with
      | n :: _ -> Option.value ~default:0 (int_of_string_opt n)
      | [] -> 0)

let reset_hwm () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
          close_out_noerr oc;
          false)

let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> 0
  | Some text -> (
      match String.split_on_char '\n' text with
      | line :: _ when String.starts_with ~prefix:"cpu " line -> (
          let fields = List.filter (fun s -> s <> "") (String.split_on_char ' ' line) in
          (* cpu user nice system idle iowait irq softirq steal ... *)
          match List.nth_opt fields 8 with
          | Some v -> Option.value ~default:0 (int_of_string_opt v)
          | None -> 0)
      | _ -> 0)

let parse_cpu_list s =
  String.split_on_char ',' (String.trim s)
  |> List.concat_map (fun part ->
         match String.split_on_char '-' part with
         | [ a ] -> Option.to_list (int_of_string_opt a)
         | [ a; b ] -> (
             match (int_of_string_opt a, int_of_string_opt b) with
             | Some a, Some b when a <= b -> List.init (b - a + 1) (fun i -> a + i)
             | _ -> [])
         | _ -> [])

let cpus_allowed () =
  match status_field "Cpus_allowed_list" with
  | Some v -> parse_cpu_list v
  | None -> []

(* ---- spans ---- *)

type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  start : float;
  stop : float;
  alloc_words : float;
  major_gcs : int;
  rss_start_kb : int;
  peak_kb : int;
}

type open_span = {
  o_id : int;
  o_name : string;
  o_parent : int;
  o_op : int;
  o_start : float;
  o_words : float;
  o_majors : int;
  o_rss : int;
  mutable o_peak : int;
}

(* One trace per process, driven from one thread. *)
type trace = {
  mutable on : bool;
  mutable op : int;
  mutable next_id : int;
  mutable stack : open_span list;
  mutable finished : span list;
}

let trace = { on = false; op = 0; next_id = 0; stack = []; finished = [] }
let set_enabled b = trace.on <- b
let set_op op = trace.op <- op

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let finish o =
  let stop = now () in
  let words = allocated_words () in
  let majors = (Gc.quick_stat ()).Gc.major_collections in
  o.o_peak <- max o.o_peak (status_kb "VmHWM");
  trace.stack <- (match trace.stack with _ :: tl -> tl | [] -> []);
  trace.finished <-
    {
      id = o.o_id;
      name = o.o_name;
      parent = o.o_parent;
      op = o.o_op;
      start = o.o_start;
      stop;
      alloc_words = words -. o.o_words;
      major_gcs = majors - o.o_majors;
      rss_start_kb = o.o_rss;
      peak_kb = o.o_peak;
    }
    :: trace.finished

let span name f =
  if not trace.on then f ()
  else begin
    let hwm = status_kb "VmHWM" in
    List.iter (fun o -> o.o_peak <- max o.o_peak hwm) trace.stack;
    ignore (reset_hwm () : bool);
    let rss = status_kb "VmRSS" in
    let words = allocated_words () in
    let majors = (Gc.quick_stat ()).Gc.major_collections in
    (* Stamped last, so the readings above fall outside the span. *)
    let o =
      {
        o_id = trace.next_id;
        o_name = name;
        o_parent = (match trace.stack with p :: _ -> p.o_id | [] -> -1);
        o_op = trace.op;
        o_start = now ();
        o_words = words;
        o_majors = majors;
        o_rss = rss;
        o_peak = rss;
      }
    in
    trace.next_id <- trace.next_id + 1;
    trace.stack <- o :: trace.stack;
    match f () with
    | v ->
        finish o;
        v
    | exception e ->
        finish o;
        raise e
  end

let spans () =
  List.stable_sort (fun a b -> Float.compare a.start b.start) (List.rev trace.finished)

let clear () =
  trace.stack <- [];
  trace.finished <- []

let self_time s children =
  let intervals =
    List.filter_map
      (fun c ->
        let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) intervals
  in
  let covered = match last with Some (a, b) -> covered +. (b -. a) | None -> covered in
  s.stop -. s.start -. covered

type layer = {
  layer : string;
  ops : int;
  ms : float;
  alloc_mw : float;
  gcs : float;
  rss_growth_mb : float;
}

let layers spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let names =
    List.fold_left
      (fun acc s -> if List.mem s.name acc then acc else s.name :: acc)
      [] spans
    |> List.rev
  in
  List.map
    (fun name ->
      (* (op -> self seconds, words, gcs, rss growth kB) *)
      let per_op = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun s ->
          if String.equal s.name name then begin
            let self = self_time s (Hashtbl.find_all children s.id) in
            let t, w, g, r =
              match Hashtbl.find_opt per_op s.op with
              | Some v -> v
              | None ->
                  order := s.op :: !order;
                  (0.0, 0.0, 0, 0)
            in
            Hashtbl.replace per_op s.op
              ( t +. self,
                w +. s.alloc_words,
                g + s.major_gcs,
                max r (s.peak_kb - s.rss_start_kb) )
          end)
        spans;
      let vals f = Array.of_list (List.map (fun op -> f (Hashtbl.find per_op op)) !order) in
      {
        layer = name;
        ops = List.length !order;
        ms = median (vals (fun (t, _, _, _) -> 1000.0 *. t));
        alloc_mw = median (vals (fun (_, w, _, _) -> w /. 1e6));
        gcs = median (vals (fun (_, _, g, _) -> float_of_int g));
        rss_growth_mb = median (vals (fun (_, _, _, r) -> float_of_int r /. 1024.0));
      })
    names

let span_to_json s =
  Rpi_json.Obj
    [
      ("id", Rpi_json.Int s.id);
      ("name", Rpi_json.String s.name);
      ("parent", Rpi_json.Int s.parent);
      ("op", Rpi_json.Int s.op);
      ("start", Rpi_json.Float s.start);
      ("stop", Rpi_json.Float s.stop);
      ("alloc_words", Rpi_json.Float s.alloc_words);
      ("major_gcs", Rpi_json.Int s.major_gcs);
      ("rss_start_kb", Rpi_json.Int s.rss_start_kb);
      ("peak_kb", Rpi_json.Int s.peak_kb);
    ]

let span_of_json = function
  | Rpi_json.Obj fields -> (
      let int k = match List.assoc_opt k fields with Some (Rpi_json.Int i) -> Some i | _ -> None in
      let num k =
        match List.assoc_opt k fields with
        | Some (Rpi_json.Float f) -> Some f
        | Some (Rpi_json.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      match
        ( (int "id", List.assoc_opt "name" fields, int "parent", int "op"),
          (num "start", num "stop", num "alloc_words"),
          (int "major_gcs", int "rss_start_kb", int "peak_kb") )
      with
      | ( (Some id, Some (Rpi_json.String name), Some parent, Some op),
          (Some start, Some stop, Some alloc_words),
          (Some major_gcs, Some rss_start_kb, Some peak_kb) ) ->
          Some
            { id; name; parent; op; start; stop; alloc_words; major_gcs; rss_start_kb; peak_kb }
      | _ -> None)
  | _ -> None
