module Asn = Rpi_bgp.Asn
module Route = Rpi_bgp.Route
module As_path = Rpi_bgp.As_path
module Community = Rpi_bgp.Community
module Rib = Rpi_bgp.Rib
module Decision = Rpi_bgp.Decision
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4
module Wire = Rpi_net.Wire

let add_header buf router_id =
  Buffer.add_string buf "BGP table version is 1, local router ID is ";
  Ipv4.to_buffer buf router_id;
  Buffer.add_string buf
    "\nStatus codes: s suppressed, d damped, h history, * valid, > best, i - internal\n\
     Origin codes: i - IGP, e - EGP, ? - incomplete\n\
     \n\
    \   Network            Next Hop            Metric LocPrf Weight Path\n"

let[@rpilint.hot] add_spaces buf n =
  for _ = 1 to n do
    Buffer.add_char buf ' '
  done

(* [n] right-aligned in a column of [width], like "%6d". *)
let[@rpilint.hot] add_right_int buf width n =
  add_spaces buf (width - Wire.int_length n);
  Wire.add_int buf n

(* The row "%s %-18s %-19s %6s %6s %6d %s": status, network, next hop,
   metric, locprf, weight 0, then path and origin. *)
let[@rpilint.hot] add_row buf ~best (route : Route.t) =
  Buffer.add_string buf (if best then "*> " else "*  ");
  let column = Buffer.length buf in
  if best then Prefix.to_buffer buf route.prefix;
  add_spaces buf (18 - (Buffer.length buf - column));
  Buffer.add_char buf ' ';
  let column = Buffer.length buf in
  Ipv4.to_buffer buf route.next_hop;
  add_spaces buf (19 - (Buffer.length buf - column));
  Buffer.add_char buf ' ';
  (match route.med with
  | Some m -> add_right_int buf 6 m
  | None -> Buffer.add_string buf "     0");
  Buffer.add_char buf ' ';
  (* "-" rather than Cisco's blank column: a blank is ambiguous once the
     line is whitespace-split (path members are numbers too). *)
  (match route.local_pref with
  | Some lp -> add_right_int buf 6 lp
  | None -> Buffer.add_string buf "     -");
  Buffer.add_string buf "      0 ";
  if not (As_path.is_empty route.as_path) then begin
    As_path.to_buffer buf route.as_path;
    Buffer.add_char buf ' '
  end;
  Buffer.add_string buf (Route.origin_to_string route.origin);
  Buffer.add_char buf '\n'

let render ?(router_id = Ipv4.of_octets 172 16 1 1) rib =
  let buf = Buffer.create 4096 in
  add_header buf router_id;
  Rib.iter
    (fun _ routes ->
      (* Canonical candidate order: decision preference (a strict total
         order) with the decision process's own pick first, so any table
         holding the same route set renders to the same bytes — parse |>
         render is a fixpoint. *)
      let sorted = List.stable_sort (fun a b -> Decision.compare_routes a b) routes in
      match Decision.select_best sorted with
      | Some b ->
          add_row buf ~best:true b;
          List.iter (fun r -> if not (Route.equal r b) then add_row buf ~best:false r) sorted
      | None -> ())
    rib;
  Buffer.contents buf

(* --- summary parser --- *)

let starts_with s start stop lit =
  stop - start >= String.length lit
  && Wire.substring_is s ~pos:start ~len:(String.length lit) lit

let is_header_line s start stop =
  starts_with s start stop "BGP table"
  || starts_with s start stop "Status codes"
  || starts_with s start stop "Origin codes"
  || starts_with s start stop "   Network"

exception Bad_row of string

let field = function
  | Ok v -> v
  | Error msg -> raise_notrace (Bad_row msg)

let bad fmt = Printf.ksprintf (fun msg -> raise_notrace (Bad_row msg)) fmt

(* Where the space-separated token at or after [i] starts. *)
let token s i stop = Wire.skip s i stop ' '

(* Where the token starting at [i] ends. *)
let token_end s i stop = Wire.find s i stop ' '

(* The start of the last token in [i, stop), which holds one. *)
let rec last_token s i stop =
  let after = token s (token_end s i stop) stop in
  if after = stop then i else last_token s after stop

let int_token name s i j =
  match Wire.int_of_substring s ~pos:i ~len:(j - i) with
  | Some _ as v -> v
  | None -> bad "bad %s %S" name (String.sub s i (j - i))

(* One data row in [start, stop) of [s].  A row without a network token
   (no '/') continues [current]'s network. *)
let route_of_span ~current s start stop =
  if stop - start < 2 || not (Char.equal s.[start] '*') then Error "unrecognised row"
  else
    match
      let first = token s (start + 2) stop in
      let first_end = token_end s first stop in
      let has_network = Wire.find s first first_end '/' < first_end in
      let network =
        if has_network then
          Result.to_option (Prefix.of_substring s ~pos:first ~len:(first_end - first))
        else current
      in
      let prefix =
        match network with
        | Some prefix -> prefix
        | None -> bad "no network in scope"
      in
      let nh = if has_network then token s first_end stop else first in
      let nh_end = token_end s nh stop in
      let metric = token s nh_end stop in
      let metric_end = token_end s metric stop in
      let locprf = token s metric_end stop in
      let locprf_end = token_end s locprf stop in
      if locprf = stop then bad "truncated row";
      (* After the next hop: metric, locprf ("-" when unset), weight,
         then the path and the origin code. *)
      let next_hop = field (Ipv4.of_substring s ~pos:nh ~len:(nh_end - nh)) in
      let med = int_token "metric" s metric metric_end in
      let local_pref =
        if Wire.substring_is s ~pos:locprf ~len:(locprf_end - locprf) "-" then None
        else int_token "locprf" s locprf locprf_end
      in
      let weight = token s locprf_end stop in
      if weight = stop then bad "missing path";
      let path = token s (token_end s weight stop) stop in
      if path = stop then bad "missing origin";
      let org = last_token s path stop in
      let org_end = token_end s org stop in
      let origin = field (Route.origin_of_substring s ~pos:org ~len:(org_end - org)) in
      let as_path = field (As_path.of_substring s ~pos:path ~len:(org - path)) in
      {
        Route.prefix;
        next_hop;
        as_path;
        origin;
        local_pref;
        med;
        communities = Community.Set.empty;
        source = Route.Ebgp;
        igp_metric = 0;
        router_id = next_hop;
        peer_as = As_path.first_hop as_path;
      }
    with
    | route -> Ok route
    | exception Bad_row msg -> Error msg

(* The one line loop.  Blank and header lines are skipped; lines count
   from 1.  Returns the routes, newest first, and the rows that failed,
   last first.  Without [salvage] the first failure ends the loop. *)
let scan ~salvage text =
  let len = String.length text in
  let rec go n start current routes skipped =
    if start > len then (routes, skipped)
    else begin
      let stop = Wire.find text start len '\n' in
      if Wire.skip_blank text start stop = stop || is_header_line text start stop then
        go (n + 1) (stop + 1) current routes skipped
      else
        match route_of_span ~current text start stop with
        | Ok route ->
            go (n + 1) (stop + 1) (Some route.Route.prefix) (route :: routes) skipped
        | Error msg ->
            let skipped = (n, msg) :: skipped in
            if salvage then go (n + 1) (stop + 1) current routes skipped else (routes, skipped)
    end
  in
  go 1 0 None [] []

let parse text =
  match scan ~salvage:false text with
  | routes, [] -> Ok (Rib.of_routes (List.rev routes))
  | _, (n, msg) :: _ -> Error (Printf.sprintf "line %d: %s" n msg)

let parse_lenient text =
  let routes, skipped = scan ~salvage:true text in
  (List.rev routes, List.rev skipped)

(* --- per-prefix detail --- *)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let render_prefix_detail rib prefix =
  let routes = Rib.candidates rib prefix in
  let best = Decision.select_best routes in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "BGP routing table entry for %s\n" (Prefix.to_string prefix));
  Buffer.add_string buf
    (Printf.sprintf "Paths: (%d available, best #1)\n" (List.length routes));
  let ordered =
    match best with
    | Some b -> b :: List.filter (fun r -> not (Route.equal r b)) routes
    | None -> routes
  in
  List.iter
    (fun (r : Route.t) ->
      let path_str =
        let p = As_path.to_string r.Route.as_path in
        if p = "" then "Local" else p
      in
      Buffer.add_string buf (Printf.sprintf "  %s\n" path_str);
      Buffer.add_string buf
        (Printf.sprintf "    %s from %s\n"
           (Ipv4.to_string r.Route.next_hop)
           (Ipv4.to_string r.Route.router_id));
      let is_best =
        match best with
        | Some b -> Route.equal b r
        | None -> false
      in
      Buffer.add_string buf
        (Printf.sprintf "      Origin %s, metric %d, localpref %d%s\n"
           (match r.Route.origin with
           | Route.Igp -> "IGP"
           | Route.Egp -> "EGP"
           | Route.Incomplete -> "incomplete")
           (Route.effective_med r)
           (Route.effective_local_pref r)
           (if is_best then ", best" else ""));
      if not (Community.Set.is_empty r.Route.communities) then
        Buffer.add_string buf
          (Printf.sprintf "      Community: %s\n" (Community.Set.to_string r.Route.communities)))
    ordered;
  Buffer.contents buf

type detail = {
  prefix : Prefix.t;
  paths : (As_path.t * int option * Community.Set.t * bool) list;
}

let parse_prefix_detail text =
  let lines = String.split_on_char '\n' text |> List.map String.trim in
  let ( let* ) = Result.bind in
  let* prefix =
    match lines with
    | first :: _ when String.length first > 27
                      && String.starts_with ~prefix:"BGP routing table entry for" first ->
        Prefix.of_string (String.trim (String.sub first 27 (String.length first - 27)))
    | _ -> Error "missing table entry header"
  in
  (* Walk the block: a path line is a bare AS path (or "Local"); attribute
     lines start with Origin/Community/from. *)
  let is_attr line =
    let starts p = String.starts_with ~prefix:p line in
    starts "Origin" || starts "Community:" || String.contains line ','
    || starts "Paths:" || starts "BGP "
  in
  let looks_like_path line =
    line <> ""
    && (String.equal line "Local"
       || String.for_all (fun c -> (c >= '0' && c <= '9') || c = ' ' || c = '{' || c = '}' || c = ',') line)
    && not (String.contains line '.')
  in
  let rec walk acc current = function
    | [] -> Ok (List.rev (match current with Some c -> c :: acc | None -> acc))
    | line :: rest ->
        if looks_like_path line && not (is_attr line) then begin
          let parsed =
            if String.equal line "Local" then Ok As_path.empty
            else As_path.of_string line
          in
          match parsed with
          | Ok path ->
              let acc = match current with Some c -> c :: acc | None -> acc in
              walk acc (Some (path, None, Community.Set.empty, false)) rest
          | Error e -> Error e
        end
        else begin
          match current with
          | None -> walk acc current rest
          | Some (path, lp, comms, best) ->
              let current =
                if String.starts_with ~prefix:"Origin " line then begin
                  let best = best ||
                    (let suffix = ", best" in
                     let ll = String.length line and sl = String.length suffix in
                     ll >= sl &&
                     (let rec find i =
                        i + sl <= ll
                        && (String.equal (String.sub line i sl) suffix
                           || find (i + 1))
                      in
                      find 0))
                  in
                  let lp =
                    split_ws line
                    |> List.map (fun t ->
                           if String.length t > 0 && t.[String.length t - 1] = ',' then
                             String.sub t 0 (String.length t - 1)
                           else t)
                    |> (fun tokens ->
                         let rec after = function
                           | "localpref" :: v :: _ -> int_of_string_opt v
                           | _ :: rest -> after rest
                           | [] -> None
                         in
                         after tokens)
                  in
                  Some (path, lp, comms, best)
                end
                else if String.starts_with ~prefix:"Community:" line then begin
                  let body = String.sub line 10 (String.length line - 10) in
                  match Community.Set.of_string (String.trim body) with
                  | Ok set -> Some (path, lp, Community.Set.union comms set, best)
                  | Error _ -> Some (path, lp, comms, best)
                end
                else Some (path, lp, comms, best)
              in
              walk acc current rest
        end
  in
  let* paths = walk [] None (List.tl lines) in
  Ok { prefix; paths }
