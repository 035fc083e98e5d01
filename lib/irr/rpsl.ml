module Asn = Rpi_bgp.Asn

type import_rule = { from_as : Asn.t; pref : int option; accept : string }

type export_rule = { to_as : Asn.t; announce : string }

type aut_num = {
  asn : Asn.t;
  as_name : string;
  imports : import_rule list;
  exports : export_rule list;
  changed : int;
  source : string;
}

let make ~asn ?(as_name = "UNNAMED") ?(imports = []) ?(exports = []) ?(changed = 20021104)
    ?(source = "RADB") () =
  { asn; as_name; imports; exports; changed; source }

let render_import r =
  match r.pref with
  | Some pref ->
      Printf.sprintf "import:      from %s action pref = %d; accept %s"
        (Asn.to_label r.from_as) pref r.accept
  | None ->
      Printf.sprintf "import:      from %s accept %s" (Asn.to_label r.from_as) r.accept

let render_export r =
  Printf.sprintf "export:      to %s announce %s" (Asn.to_label r.to_as) r.announce

let render obj =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "aut-num:     %s\n" (Asn.to_label obj.asn));
  Buffer.add_string buf (Printf.sprintf "as-name:     %s\n" obj.as_name);
  List.iter
    (fun r ->
      Buffer.add_string buf (render_import r);
      Buffer.add_char buf '\n')
    obj.imports;
  List.iter
    (fun r ->
      Buffer.add_string buf (render_export r);
      Buffer.add_char buf '\n')
    obj.exports;
  Buffer.add_string buf (Printf.sprintf "changed:     noc@example.net %08d\n" obj.changed);
  Buffer.add_string buf (Printf.sprintf "source:      %s\n" obj.source);
  Buffer.contents buf

let render_many objs = String.concat "\n" (List.map render objs)

let split_attr line =
  match String.index_opt line ':' with
  | None -> None
  | Some i ->
      let key = String.trim (String.sub line 0 i) in
      let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      Some (key, value)

let tokens s = String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* "from AS2 action pref = 10; accept ANY" or "from AS2 accept ANY" *)
let parse_import value =
  match tokens value with
  | "from" :: peer :: rest -> begin
      match Asn.of_string peer with
      | Error e -> Error e
      | Ok from_as -> begin
          (* Optional "action pref = N;" section before "accept". *)
          let rec split_action acc = function
            | "accept" :: filter -> Ok (List.rev acc, String.concat " " filter)
            | tok :: rest -> split_action (tok :: acc) rest
            | [] -> Error "import rule missing accept"
          in
          match split_action [] rest with
          | Error e -> Error e
          | Ok (action_tokens, accept) ->
              let pref =
                let rec find = function
                  | "pref" :: "=" :: v :: _ ->
                      int_of_string_opt (String.concat "" (String.split_on_char ';' v))
                  | tok :: _ when String.starts_with ~prefix:"pref=" tok
                    ->
                      let v = String.sub tok 5 (String.length tok - 5) in
                      int_of_string_opt (String.concat "" (String.split_on_char ';' v))
                  | _ :: rest -> find rest
                  | [] -> None
                in
                find action_tokens
              in
              Ok { from_as; pref; accept }
        end
    end
  | _ -> Error (Printf.sprintf "malformed import %S" value)

let parse_export value =
  match tokens value with
  | "to" :: peer :: "announce" :: filter -> begin
      match Asn.of_string peer with
      | Error e -> Error e
      | Ok to_as -> Ok { to_as; announce = String.concat " " filter }
    end
  | _ -> Error (Printf.sprintf "malformed export %S" value)

let parse_object text =
  let lines = String.split_on_char '\n' text in
  let init = (None, "UNNAMED", [], [], 0, "RADB") in
  let step acc line =
    match acc with
    | Error _ as e -> e
    | Ok (asn, name, imports, exports, changed, source) -> begin
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' || trimmed.[0] = '%' then acc
        else begin
          match split_attr line with
          | None -> acc (* tolerate stray lines *)
          | Some (key, value) -> begin
              match key with
              | "aut-num" -> begin
                  match Asn.of_string value with
                  | Ok a -> Ok (Some a, name, imports, exports, changed, source)
                  | Error e -> Error e
                end
              | "as-name" -> Ok (asn, value, imports, exports, changed, source)
              | "import" -> begin
                  match parse_import value with
                  | Ok r -> Ok (asn, name, r :: imports, exports, changed, source)
                  | Error e -> Error e
                end
              | "export" -> begin
                  match parse_export value with
                  | Ok r -> Ok (asn, name, imports, r :: exports, changed, source)
                  | Error e -> Error e
                end
              | "changed" -> begin
                  match List.rev (tokens value) with
                  | date :: _ -> begin
                      match int_of_string_opt date with
                      | Some d -> Ok (asn, name, imports, exports, d, source)
                      | None -> Ok (asn, name, imports, exports, changed, source)
                    end
                  | [] -> acc
                end
              | "source" -> Ok (asn, name, imports, exports, changed, value)
              | _ -> acc (* other RPSL attributes are irrelevant here *)
            end
        end
      end
  in
  match List.fold_left step (Ok init) lines with
  | Error e -> Error e
  | Ok (None, _, _, _, _, _) -> Error "object has no aut-num attribute"
  | Ok (Some asn, as_name, imports, exports, changed, source) ->
      Ok
        {
          asn;
          as_name;
          imports = List.rev imports;
          exports = List.rev exports;
          changed;
          source;
        }

let parse text =
  (* Objects are separated by blank lines. *)
  let lines = String.split_on_char '\n' text in
  let flush chunk acc =
    let body = String.concat "\n" (List.rev chunk) in
    if String.trim body = "" then Ok acc
    else begin
      match parse_object body with
      | Ok obj -> Ok (obj :: acc)
      | Error _ as e -> e
    end
  in
  let rec go chunk acc = function
    | [] -> begin
        match flush chunk acc with
        | Ok objs -> Ok (List.rev objs)
        | Error e -> Error e
      end
    | line :: rest ->
        if String.trim line = "" then begin
          match flush chunk acc with
          | Ok acc -> go [] acc rest
          | Error e -> Error e
        end
        else go (line :: chunk) acc rest
  in
  go [] [] lines

let parse_lenient text =
  let lines = String.split_on_char '\n' text in
  let flush chunk (objs, errs) =
    let body = String.concat "\n" (List.rev chunk) in
    if String.trim body = "" then (objs, errs)
    else begin
      match parse_object body with
      | Ok obj -> (obj :: objs, errs)
      | Error e -> (objs, e :: errs)
    end
  in
  let rec go chunk acc = function
    | [] ->
        let objs, errs = flush chunk acc in
        (List.rev objs, List.rev errs)
    | line :: rest ->
        if String.trim line = "" then go [] (flush chunk acc) rest
        else go (line :: chunk) acc rest
  in
  go [] ([], []) lines
