type t = int

let of_int n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Asn.of_int: out of range";
  n

let to_int n = n

(* Any spelling but plain digits: an optional "AS"/"as" label, then
   [int_of_string_opt]. *)
let of_token s =
  let body =
    if String.starts_with ~prefix:"AS" s || String.starts_with ~prefix:"as" s then
      String.sub s 2 (String.length s - 2)
    else s
  in
  match int_of_string_opt body with
  | Some n when n >= 0 && n <= 0xFFFFFFFF -> Ok n
  | Some _ | None -> Error (Printf.sprintf "invalid AS number %S" s)

let of_substring s ~pos ~len =
  match Rpi_net.Wire.digits s ~pos ~len with
  | n when n >= 0 && n <= 0xFFFFFFFF -> Ok n
  | _ -> of_token (String.sub s pos len)

let of_string s = Rpi_net.Wire.of_string of_substring s

let of_string_exn s =
  match of_string s with Ok n -> n | Error msg -> invalid_arg msg

let[@rpilint.hot] to_buffer buf n = Rpi_net.Wire.add_int buf n
let to_string n = Rpi_net.Wire.to_string to_buffer n
let to_label n = "AS" ^ to_string n

let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
