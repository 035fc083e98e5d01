type segment = Seq of Asn.t list | Set of Asn.Set.t

type t = segment list

(* Invariant: no empty Seq/Set segments; adjacent Seq segments merged. *)

let normalise segments =
  let keep = function
    | Seq [] -> false
    | Seq (_ :: _) -> true
    | Set s -> not (Asn.Set.is_empty s)
  in
  let rec merge = function
    | Seq a :: Seq b :: rest -> merge (Seq (a @ b) :: rest)
    | seg :: rest -> seg :: merge rest
    | [] -> []
  in
  merge (List.filter keep segments)

let empty = []
let of_list hops = normalise [ Seq hops ]
let of_segments segs = normalise segs
let segments t = t

let to_list t =
  List.concat_map
    (function
      | Seq hops -> hops
      | Set s -> Asn.Set.elements s)
    t

let is_empty t = t = []

let length t =
  List.fold_left
    (fun acc seg ->
      match seg with
      | Seq hops -> acc + List.length hops
      | Set _ -> acc + 1)
    0 t

let first_hop t =
  match t with
  | [] -> None
  | Seq (a :: _) :: _ -> Some a
  | Seq [] :: _ -> None (* excluded by invariant *)
  | Set s :: _ -> Asn.Set.min_elt_opt s

let origin_as t =
  match List.rev t with
  | [] -> None
  | Set _ :: _ -> None
  | Seq hops :: _ -> begin
      match List.rev hops with
      | last :: _ -> Some last
      | [] -> None
    end

let mem asn t =
  List.exists
    (function
      | Seq hops -> List.exists (Asn.equal asn) hops
      | Set s -> Asn.Set.mem asn s)
    t

let prepend asn t = normalise (Seq [ asn ] :: t)

let prepend_n asn n t =
  if n < 1 then invalid_arg "As_path.prepend_n: count must be >= 1";
  normalise (Seq (List.init n (fun _ -> asn)) :: t)

let pairs t =
  let seq_pairs hops =
    let rec go = function
      | a :: (b :: _ as rest) -> (a, b) :: go rest
      | [ _ ] | [] -> []
    in
    go hops
  in
  List.concat_map
    (function
      | Seq hops -> seq_pairs hops
      | Set _ -> [])
    t

module Wire = Rpi_net.Wire

let[@rpilint.hot] rec add_hops buf sep = function
  | [] -> ()
  | [ a ] -> Asn.to_buffer buf a
  | a :: rest ->
      Asn.to_buffer buf a;
      Buffer.add_char buf sep;
      add_hops buf sep rest

(* AS_SETs come only from aggregation, so listing one may allocate. *)
let add_set buf s =
  Buffer.add_char buf '{';
  add_hops buf ',' (Asn.Set.elements s);
  Buffer.add_char buf '}'

let[@rpilint.hot] rec to_buffer buf = function
  | [] -> ()
  | seg :: rest ->
      (match seg with
      | Seq hops -> add_hops buf ' ' hops
      | Set s -> add_set buf s);
      (match rest with
      | [] -> ()
      | _ :: _ -> Buffer.add_char buf ' ');
      to_buffer buf rest

let to_string t = Wire.to_string to_buffer t

(* The members of a "{a,b}" token between [i] and [stop]: comma
   separated, empty members skipped. *)
let rec read_set s i stop set =
  if i >= stop then Ok set
  else begin
    let comma = Wire.find s i stop ',' in
    if comma = i then read_set s (i + 1) stop set
    else
      match Asn.of_substring s ~pos:i ~len:(comma - i) with
      | Ok a -> read_set s (comma + 1) stop (Asn.Set.add a set)
      | Error _ as e -> e
  end

(* Space-separated tokens from [i]: [hops] is the open AS_SEQUENCE,
   newest first, and [segs] the closed segments, newest first. *)
let rec read_tokens s i stop hops segs =
  let start = Wire.skip s i stop ' ' in
  if start = stop then
    (* A path without AS_SETs is one sequence, already normal. *)
    match (segs, hops) with
    | [], [] -> Ok []
    | [], _ :: _ -> Ok [ Seq (List.rev hops) ]
    | _ :: _, _ -> Ok (normalise (List.rev (Seq (List.rev hops) :: segs)))
  else begin
    let tok_stop = Wire.find s start stop ' ' in
    if tok_stop - start >= 2 && Char.equal s.[start] '{' && Char.equal s.[tok_stop - 1] '}'
    then
      match read_set s (start + 1) (tok_stop - 1) Asn.Set.empty with
      | Ok set -> read_tokens s tok_stop stop [] (Set set :: Seq (List.rev hops) :: segs)
      | Error e -> Error e
    else
      match Asn.of_substring s ~pos:start ~len:(tok_stop - start) with
      | Ok a -> read_tokens s tok_stop stop (a :: hops) segs
      | Error e -> Error e
  end

let of_substring s ~pos ~len = read_tokens s pos (pos + len) [] []
let of_string s = Wire.of_string of_substring s

let of_string_exn s =
  match of_string s with Ok p -> p | Error msg -> invalid_arg msg

let compare_segment a b =
  match (a, b) with
  | Seq x, Seq y -> List.compare Asn.compare x y
  | Set x, Set y -> Asn.Set.compare x y
  | Seq _, Set _ -> -1
  | Set _, Seq _ -> 1

let compare = List.compare compare_segment
let equal a b = compare a b = 0
let pp fmt t = Format.pp_print_string fmt (to_string t)
