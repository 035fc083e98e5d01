type t = { network : Ipv4.t; length : int }

let mask_of_length len =
  if len = 0 then 0 else 0xFFFFFFFF lxor ((1 lsl (32 - len)) - 1)

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  let canonical = Ipv4.to_int addr land mask_of_length len in
  { network = Ipv4.of_int32_exn canonical; length = len }

let network p = p.network
let length p = p.length

let of_substring s ~pos ~len =
  let stop = pos + len in
  match Wire.find s pos stop '/' with
  | slash when slash = stop -> begin
      match Ipv4.of_substring s ~pos ~len with
      | Ok a -> Ok (make a 32)
      | Error e -> Error e
    end
  | slash -> begin
      match
        ( Ipv4.of_substring s ~pos ~len:(slash - pos),
          Wire.int_of_substring s ~pos:(slash + 1) ~len:(stop - slash - 1) )
      with
      | Ok a, Some bits when bits >= 0 && bits <= 32 -> Ok (make a bits)
      | Ok _, (Some _ | None) ->
          Error (Printf.sprintf "invalid prefix length in %S" (String.sub s pos len))
      | Error e, _ -> Error e
    end

let of_string s = Wire.of_string of_substring s

let of_string_exn s =
  match of_string s with Ok p -> p | Error msg -> invalid_arg msg

let[@rpilint.hot] to_buffer buf p =
  Ipv4.to_buffer buf p.network;
  Buffer.add_char buf '/';
  Wire.add_int buf p.length

let to_string p = Wire.to_string to_buffer p
let pp fmt p = Format.pp_print_string fmt (to_string p)

let compare p q =
  match Ipv4.compare p.network q.network with
  | 0 -> Int.compare p.length q.length
  | c -> c

let equal p q = compare p q = 0

let contains p a = Ipv4.to_int a land mask_of_length p.length = Ipv4.to_int p.network

let subsumes p q = p.length <= q.length && contains p q.network
let strictly_subsumes p q = p.length < q.length && contains p q.network

let split p =
  if p.length >= 32 then None
  else begin
    let len = p.length + 1 in
    let lo = p.network in
    let hi = Ipv4.of_int32_exn (Ipv4.to_int p.network lor (1 lsl (32 - len))) in
    Some (make lo len, make hi len)
  end

let split_to p len =
  if len > 32 then invalid_arg "Prefix.split_to: length out of range";
  if len <= p.length then [ p ]
  else begin
    let count = 1 lsl (len - p.length) in
    if count > 65536 then invalid_arg "Prefix.split_to: expansion too large";
    let step = 1 lsl (32 - len) in
    let base = Ipv4.to_int p.network in
    List.init count (fun i -> make (Ipv4.of_int32_exn (base + (i * step))) len)
  end

let supernet p =
  if p.length = 0 then None else Some (make p.network (p.length - 1))

let aggregate p q =
  if p.length <> q.length || p.length = 0 then None
  else begin
    match supernet p with
    | None -> None
    | Some parent ->
        if subsumes parent q && not (equal p q) then Some parent else None
  end

let default_route = make (Ipv4.of_int32_exn 0) 0

let bit p i =
  if i >= p.length then invalid_arg "Prefix.bit: index beyond prefix length";
  Ipv4.bit p.network i

let random rng ~min_len ~max_len =
  if min_len < 0 || max_len > 32 || min_len > max_len then
    invalid_arg "Prefix.random: bad length range";
  let len = Rpi_prng.Prng.int_in rng min_len max_len in
  let addr = Ipv4.of_int32_exn (Rpi_prng.Prng.int rng (0xFFFFFFFF + 1)) in
  make addr len

let first_address p = p.network

let last_address p =
  let host_bits = 0xFFFFFFFF lxor mask_of_length p.length in
  Ipv4.of_int32_exn (Ipv4.to_int p.network lor host_bits)
