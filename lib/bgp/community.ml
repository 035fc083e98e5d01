type t = int
(* 32-bit encoding: (asn lsl 16) lor value.  Well-known communities live in
   the 0xFFFF0000 "reserved" block, which [make] cannot produce because it
   limits asn to 16 bits and rejects 0xFFFF by RFC convention only for the
   two values we materialise below; encoding stays uniform either way. *)

let encode asn value = (asn lsl 16) lor value

let make asn value =
  let a = Asn.to_int asn in
  if a > 0xFFFF then invalid_arg "Community.make: AS number exceeds 16 bits";
  if value < 0 || value > 0xFFFF then invalid_arg "Community.make: value out of range";
  encode a value

let asn c = Asn.of_int (c lsr 16)
let value c = c land 0xFFFF

let no_export = 0xFFFFFF01
let no_advertise = 0xFFFFFF02

let is_no_export c = c = no_export
let is_no_advertise c = c = no_advertise

module Wire = Rpi_net.Wire

(* Any spelling but plain digits around the colon: [int_of_string_opt]
   on each half. *)
let of_token s =
  match s with
  | "no-export" -> Ok no_export
  | "no-advertise" -> Ok no_advertise
  | _ -> begin
      match String.index_opt s ':' with
      | None -> Error (Printf.sprintf "invalid community %S" s)
      | Some i -> begin
          let hi = String.sub s 0 i in
          let lo = String.sub s (i + 1) (String.length s - i - 1) in
          match (int_of_string_opt hi, int_of_string_opt lo) with
          | Some a, Some v when a >= 0 && a <= 0xFFFF && v >= 0 && v <= 0xFFFF ->
              Ok (encode a v)
          | _, _ -> Error (Printf.sprintf "invalid community %S" s)
        end
    end

let of_substring s ~pos ~len =
  let stop = pos + len in
  let colon = Wire.find s pos stop ':' in
  let hi = Wire.digits s ~pos ~len:(colon - pos) in
  let lo = Wire.digits s ~pos:(colon + 1) ~len:(stop - colon - 1) in
  if colon < stop && hi >= 0 && hi <= 0xFFFF && lo >= 0 && lo <= 0xFFFF then Ok (encode hi lo)
  else of_token (String.sub s pos len)

let of_string s = Wire.of_string of_substring s

let of_string_exn s =
  match of_string s with Ok c -> c | Error msg -> invalid_arg msg

let[@rpilint.hot] to_buffer buf c =
  if c = no_export then Buffer.add_string buf "no-export"
  else if c = no_advertise then Buffer.add_string buf "no-advertise"
  else begin
    Wire.add_int buf (c lsr 16);
    Buffer.add_char buf ':';
    Wire.add_int buf (c land 0xFFFF)
  end

let to_string c = Wire.to_string to_buffer c

let compare = Int.compare
let equal = Int.equal
let pp fmt c = Format.pp_print_string fmt (to_string c)

module Set = struct
  include Set.Make (Int)

  let to_buffer buf set =
    ignore
      (fold
         (fun c first ->
           if not first then Buffer.add_char buf ' ';
           to_buffer buf c;
           false)
         set true
        : bool)

  let to_string set = Wire.to_string to_buffer set

  (* Space-separated tokens from [i]; the first bad one is the error. *)
  let rec add_tokens s i stop set =
    let start = Wire.skip s i stop ' ' in
    if start = stop then Ok set
    else begin
      let stop_tok = Wire.find s start stop ' ' in
      match of_substring s ~pos:start ~len:(stop_tok - start) with
      | Ok c -> add_tokens s stop_tok stop (add c set)
      | Error _ as e -> e
    end

  let of_substring s ~pos ~len = add_tokens s pos (pos + len) empty
  let of_string s = Wire.of_string of_substring s
end
