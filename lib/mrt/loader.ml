module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Wire = Rpi_net.Wire

let dump_file dir asn = Filename.concat dir (Printf.sprintf "AS%s.dump" (Asn.to_string asn))

let save_snapshot ~dir ?timestamp tables =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (asn, rib) -> Table_dump.save_file (dump_file dir asn) ?timestamp ~vantage_as:asn rib)
    tables

let load_snapshot ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "no such directory %S" dir)
  else begin
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f ->
             String.length f > 7
             && String.starts_with ~prefix:"AS" f
             && Filename.check_suffix f ".dump")
      |> List.sort String.compare
    in
    let parse_one acc file =
      match acc with
      | Error _ as e -> e
      | Ok tables -> begin
          let asn_str = String.sub file 2 (String.length file - 7) in
          match Asn.of_string asn_str with
          | Error e -> Error (Printf.sprintf "%s: %s" file e)
          | Ok asn -> begin
              match Table_dump.load_file (Filename.concat dir file) with
              | Error e -> Error (Printf.sprintf "%s: %s" file e)
              | Ok entries ->
                  let routes = List.map (fun (e : Table_dump.entry) -> e.route) entries in
                  Ok ((asn, Rib.of_routes routes) :: tables)
            end
        end
    in
    Result.map
      (List.sort (fun (a, _) (b, _) -> Asn.compare a b))
      (List.fold_left parse_one (Ok []) files)
  end

(* The first non-blank line, trimmed; "" when there is none. *)
let first_line text =
  let len = String.length text in
  let rec from start =
    if start > len then ""
    else begin
      let stop = Wire.find text start len '\n' in
      let first = Wire.skip_blank text start stop in
      if first = stop then from (stop + 1)
      else String.sub text first (Wire.skip_blank_back text first stop - first)
    end
  in
  from 0

let detect_format text =
  let line = first_line text in
  if String.starts_with ~prefix:"RIB|" line then `Table_dump
  else if
    String.starts_with ~prefix:"BGP" line
    || (String.length line >= 3 && line.[0] = '*')
  then
    `Show_ip_bgp
  else if String.length line >= 1 && line.[0] = '#' then `Table_dump
  else `Unknown

let parse_any text =
  match detect_format text with
  | `Table_dump -> Table_dump.parse_to_rib text
  | `Show_ip_bgp -> Show_ip_bgp.parse text
  | `Unknown -> Error "unrecognised table format"
