type t = int

let max_value = 0xFFFFFFFF

let of_int32_exn n =
  if n < 0 || n > max_value then invalid_arg "Ipv4.of_int32_exn: out of range";
  n

let to_int a = a

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: octet out of range" in
  check a; check b; check c; check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

(* Any spelling the fast path does not take: the dotted quad split and
   each octet read by [int_of_string_opt]. *)
let of_token s =
  let fail () = Error (Printf.sprintf "invalid IPv4 address %S" s) in
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> begin
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 && String.length x <= 3 && x <> "" -> Some v
        | Some _ | None -> None
      in
      match (octet a, octet b, octet c, octet d) with
      | Some a, Some b, Some c, Some d -> Ok (of_octets a b c d)
      | _, _, _, _ -> fail ()
    end
  | _ -> fail ()

(* Four dot-separated octets of 1 to 3 plain digits, each at most 255;
   [-1] for anything else. *)
let[@rpilint.hot] rec quad s i stop ~dots ~octet ~width acc =
  if i = stop then if dots = 3 && width > 0 && octet <= 255 then (acc lsl 8) lor octet else -1
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c when width < 3 ->
        quad s (i + 1) stop ~dots ~octet:((octet * 10) + Char.code c - 48) ~width:(width + 1) acc
    | '.' when dots < 3 && width > 0 && octet <= 255 ->
        quad s (i + 1) stop ~dots:(dots + 1) ~octet:0 ~width:0 ((acc lsl 8) lor octet)
    | _ -> -1

let of_substring s ~pos ~len =
  let fast =
    if pos < 0 || len < 0 || pos > String.length s - len then -1
    else quad s pos (pos + len) ~dots:0 ~octet:0 ~width:0 0
  in
  if fast >= 0 then Ok fast else of_token (String.sub s pos len)

let of_string s = Wire.of_string of_substring s

let of_string_exn s =
  match of_string s with Ok a -> a | Error msg -> invalid_arg msg

let[@rpilint.hot] to_buffer buf a =
  Wire.add_int buf ((a lsr 24) land 0xFF);
  Buffer.add_char buf '.';
  Wire.add_int buf ((a lsr 16) land 0xFF);
  Buffer.add_char buf '.';
  Wire.add_int buf ((a lsr 8) land 0xFF);
  Buffer.add_char buf '.';
  Wire.add_int buf (a land 0xFF)

let to_string a = Wire.to_string to_buffer a

let compare = Int.compare
let equal = Int.equal

let succ a = (a + 1) land max_value

let bit a i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit: index out of range";
  (a lsr (31 - i)) land 1 = 1
