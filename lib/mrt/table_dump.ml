module Asn = Rpi_bgp.Asn
module Route = Rpi_bgp.Route
module As_path = Rpi_bgp.As_path
module Community = Rpi_bgp.Community
module Rib = Rpi_bgp.Rib
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4
module Wire = Rpi_net.Wire

type entry = { timestamp : int; vantage_as : Asn.t; route : Route.t }

(* --- writer --- *)

let[@rpilint.hot] add_opt_int buf = function
  | Some v -> Wire.add_int buf v
  | None -> Buffer.add_char buf '-'

(* One line, without its newline. *)
let[@rpilint.hot] add_line buf ~timestamp ~vantage_as (route : Route.t) =
  Buffer.add_string buf "RIB|";
  Wire.add_int buf timestamp;
  Buffer.add_char buf '|';
  Asn.to_buffer buf vantage_as;
  Buffer.add_char buf '|';
  (match route.peer_as with
  | Some peer -> Asn.to_buffer buf peer
  | None -> Buffer.add_char buf '-');
  Buffer.add_char buf '|';
  Prefix.to_buffer buf route.prefix;
  Buffer.add_char buf '|';
  As_path.to_buffer buf route.as_path;
  Buffer.add_char buf '|';
  Buffer.add_string buf (Route.origin_to_string route.origin);
  Buffer.add_char buf '|';
  Ipv4.to_buffer buf route.next_hop;
  Buffer.add_char buf '|';
  add_opt_int buf route.local_pref;
  Buffer.add_char buf '|';
  add_opt_int buf route.med;
  Buffer.add_char buf '|';
  if Community.Set.is_empty route.communities then Buffer.add_char buf '-'
  else Community.Set.to_buffer buf route.communities

let entry_to_line { timestamp; vantage_as; route } =
  Wire.to_string (fun buf route -> add_line buf ~timestamp ~vantage_as route) route

(* A prefix's candidates are newest first; the dump lists them in
   arrival order, so parsing it back rebuilds the same list. *)
let[@rpilint.hot] rec add_oldest_first buf ~timestamp ~vantage_as = function
  | [] -> ()
  | route :: newer ->
      add_oldest_first buf ~timestamp ~vantage_as newer;
      add_line buf ~timestamp ~vantage_as route;
      Buffer.add_char buf '\n'

let write_rib ?(timestamp = 0) ~vantage_as rib buf =
  Rib.iter (fun _ routes -> add_oldest_first buf ~timestamp ~vantage_as routes) rib

let rib_to_string ?timestamp ~vantage_as rib =
  let buf = Buffer.create 4096 in
  write_rib ?timestamp ~vantage_as rib buf;
  Buffer.contents buf

(* --- reader --- *)

exception Bad_field of string

let field = function
  | Ok v -> v
  | Error msg -> raise_notrace (Bad_field msg)

let bad fmt = Printf.ksprintf (fun msg -> raise_notrace (Bad_field msg)) fmt

let rec count_pipes s i stop n =
  let pipe = Wire.find s i stop '|' in
  if pipe = stop then n else count_pipes s (pipe + 1) stop (n + 1)

(* The end of the field that starts at [i]. *)
let field_end s i stop = Wire.find s i stop '|'

let opt_int name s i j =
  if Wire.substring_is s ~pos:i ~len:(j - i) "-" then None
  else
    match Wire.int_of_substring s ~pos:i ~len:(j - i) with
    | Some _ as v -> v
    | None -> bad "invalid %s %S" name (String.sub s i (j - i))

(* The row in [start, stop) of [s]: fields are read in order and the
   first bad one is the error. *)
let entry_of_span s start stop =
  let rib_end = field_end s start stop in
  if not (Wire.substring_is s ~pos:start ~len:(rib_end - start) "RIB") then
    Error "not a RIB line"
  else if count_pipes s start stop 0 <> 10 then Error "wrong field count"
  else begin
    match
      let ts = rib_end + 1 in
      let ts_end = field_end s ts stop in
      let timestamp =
        match Wire.int_of_substring s ~pos:ts ~len:(ts_end - ts) with
        | Some t -> t
        | None -> bad "invalid timestamp %S" (String.sub s ts (ts_end - ts))
      in
      let va = ts_end + 1 in
      let va_end = field_end s va stop in
      let vantage_as = field (Asn.of_substring s ~pos:va ~len:(va_end - va)) in
      let peer = va_end + 1 in
      let peer_end = field_end s peer stop in
      let peer_as =
        if Wire.substring_is s ~pos:peer ~len:(peer_end - peer) "-" then None
        else Some (field (Asn.of_substring s ~pos:peer ~len:(peer_end - peer)))
      in
      let pfx = peer_end + 1 in
      let pfx_end = field_end s pfx stop in
      let prefix = field (Prefix.of_substring s ~pos:pfx ~len:(pfx_end - pfx)) in
      let path = pfx_end + 1 in
      let path_end = field_end s path stop in
      let as_path = field (As_path.of_substring s ~pos:path ~len:(path_end - path)) in
      let org = path_end + 1 in
      let org_end = field_end s org stop in
      let origin = field (Route.origin_of_substring s ~pos:org ~len:(org_end - org)) in
      let nh = org_end + 1 in
      let nh_end = field_end s nh stop in
      let next_hop = field (Ipv4.of_substring s ~pos:nh ~len:(nh_end - nh)) in
      let lp = nh_end + 1 in
      let lp_end = field_end s lp stop in
      let local_pref = opt_int "local-pref" s lp lp_end in
      let med = lp_end + 1 in
      let med_end = field_end s med stop in
      let med = opt_int "med" s med med_end in
      let comms = med_end + 1 in
      let communities =
        if Wire.substring_is s ~pos:comms ~len:(stop - comms) "-" then Community.Set.empty
        else field (Community.Set.of_substring s ~pos:comms ~len:(stop - comms))
      in
      {
        timestamp;
        vantage_as;
        route =
          {
            Route.prefix;
            next_hop;
            as_path;
            origin;
            local_pref;
            med;
            communities;
            source = Route.Ebgp;
            igp_metric = 0;
            router_id = next_hop;
            peer_as;
          };
      }
    with
    | entry -> Ok entry
    | exception Bad_field msg -> Error msg
  end

let entry_of_line line = entry_of_span line 0 (String.length line)

(* The one line loop.  Every line but blanks and [#] comments is a row,
   trimmed; lines count from 1.  Returns the entries, newest first, and
   the rows that failed, last first.  Without [salvage] the first failure
   ends the loop. *)
let scan ~salvage text =
  let len = String.length text in
  let rec go n start entries skipped =
    if start > len then (entries, skipped)
    else begin
      let stop = Wire.find text start len '\n' in
      let first = Wire.skip_blank text start stop in
      if first = stop || Char.equal text.[first] '#' then go (n + 1) (stop + 1) entries skipped
      else
        match entry_of_span text first (Wire.skip_blank_back text first stop) with
        | Ok entry -> go (n + 1) (stop + 1) (entry :: entries) skipped
        | Error msg ->
            let skipped = (n, msg) :: skipped in
            if salvage then go (n + 1) (stop + 1) entries skipped else (entries, skipped)
    end
  in
  go 1 0 [] []

let strict text =
  match scan ~salvage:false text with
  | entries, [] -> Ok entries
  | _, (n, msg) :: _ -> Error (Printf.sprintf "line %d: %s" n msg)

let parse text = Result.map List.rev (strict text)

let parse_lenient text =
  let entries, skipped = scan ~salvage:true text in
  (List.rev entries, List.rev skipped)

let parse_to_rib text =
  Result.map (fun entries -> Rib.of_routes (List.rev_map (fun e -> e.route) entries)) (strict text)

let save_file path ?timestamp ~vantage_as rib =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (rib_to_string ?timestamp ~vantage_as rib))

let load_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> parse (In_channel.input_all ic))
