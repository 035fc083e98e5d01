module Asn = Rpi_bgp.Asn

type t = Rpsl.aut_num Asn.Map.t

let empty = Asn.Map.empty

let of_objects objs =
  List.fold_left (fun db (o : Rpsl.aut_num) -> Asn.Map.add o.Rpsl.asn o db) empty objs

let cardinal = Asn.Map.cardinal
let find db asn = Asn.Map.find_opt asn db
let objects db = Asn.Map.bindings db |> List.map snd

let fresh ~since db = Asn.Map.filter (fun _ (o : Rpsl.aut_num) -> o.Rpsl.changed >= since) db

let with_min_imports n db =
  Asn.Map.filter (fun _ (o : Rpsl.aut_num) -> List.length o.Rpsl.imports >= n) db

let render db = Rpsl.render_many (objects db)

let parse text = Result.map of_objects (Rpsl.parse text)

let save_file path db =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (render db))
