module Asn = Rpi_bgp.Asn
module Relationship = Rpi_topo.Relationship
module Community = Rpi_bgp.Community

type import_policy = {
  lp_customer : int;
  lp_sibling : int;
  lp_peer : int;
  lp_provider : int;
  lp_neighbor : int Asn.Map.t;
  lp_atom : (Asn.t * int * int) list;
}

let default_import =
  {
    lp_customer = 110;
    lp_sibling = 105;
    lp_peer = 100;
    lp_provider = 90;
    lp_neighbor = Asn.Map.empty;
    lp_atom = [];
  }

let class_pref p = function
  | Relationship.Customer -> p.lp_customer
  | Relationship.Sibling -> p.lp_sibling
  | Relationship.Peer -> p.lp_peer
  | Relationship.Provider -> p.lp_provider

let static_pref p ~neighbor ~rel =
  match Asn.Map.find_opt neighbor p.lp_neighbor with
  | Some lp -> lp
  | None -> class_pref p rel

(* Compiled resolution: the three override granularities — external
   per-atom triples, [lp_atom], [lp_neighbor] — collapsed into one
   hashed (neighbour, atom) lookup plus the static fallback.  Precedence
   is baked in at compile time instead of being re-decided per import:
   externals are inserted replace-wise in list order (duplicates: the
   last entry wins, matching the historical [Hashtbl.replace] fold over
   engine [lp_overrides]), then [lp_atom] entries add-if-absent (its
   historical [List.find_map] made the first match win, and an external
   always shadowed it). *)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
  let hash (a, b) = (a * 1_000_003) lxor b
end)

type resolved = { r_policy : import_policy; r_pairs : int Pair_tbl.t }

(* Local preference is RFC 4271's LOCAL_PREF, an unsigned 32-bit value,
   and the engine packs it into 32 bits of a candidate word: every value
   is checked here, where it enters the engine. *)
let check_lp caller lp =
  if lp < 0 || lp >= 1 lsl 32 then
    invalid_arg
      (Printf.sprintf "Policy.%s: local preference %d outside [0, 2^32)" caller lp)

let compile ?(overrides = []) p =
  List.iter (check_lp "compile") [ p.lp_customer; p.lp_sibling; p.lp_peer; p.lp_provider ];
  Asn.Map.iter (fun _ lp -> check_lp "compile" lp) p.lp_neighbor;
  List.iter (fun (_, _, lp) -> check_lp "compile" lp) p.lp_atom;
  List.iter (fun (_, _, lp) -> check_lp "compile" lp) overrides;
  let n_entries = List.length overrides + List.length p.lp_atom in
  let pairs = Pair_tbl.create (max 1 n_entries) in
  List.iter
    (fun (neighbor, atom, lp) -> Pair_tbl.replace pairs (Asn.to_int neighbor, atom) lp)
    overrides;
  List.iter
    (fun (neighbor, atom, lp) ->
      let key = (Asn.to_int neighbor, atom) in
      if not (Pair_tbl.mem pairs key) then Pair_tbl.add pairs key lp)
    p.lp_atom;
  { r_policy = p; r_pairs = pairs }

let resolve r ~neighbor ~rel ~atom =
  match Pair_tbl.find_opt r.r_pairs (Asn.to_int neighbor, atom) with
  | Some lp -> lp
  | None -> static_pref r.r_policy ~neighbor ~rel

let resolve_static r ~neighbor ~rel = static_pref r.r_policy ~neighbor ~rel
let is_dynamic r = Pair_tbl.length r.r_pairs > 0

(* The incremental engine owns a mutable copy of each compiled policy:
   [copy_resolved] severs the pair table from the prepared network's, and
   [override_resolved] performs the same replace-wise write a fresh
   [compile] with the entry appended to [overrides] would produce (the
   last external entry wins and shadows any [lp_atom] entry). *)
let copy_resolved r = { r with r_pairs = Pair_tbl.copy r.r_pairs }

let override_resolved r ~neighbor ~atom ~lp =
  check_lp "override_resolved" lp;
  Pair_tbl.replace r.r_pairs (Asn.to_int neighbor, atom) lp

let is_typical_classes p = p.lp_customer > p.lp_peer && p.lp_peer > p.lp_provider

type community_scheme = {
  customer_codes : int list;
  peer_codes : int list;
  provider_codes : int list;
}

let default_scheme =
  { customer_codes = [ 4000 ]; peer_codes = [ 1000 ]; provider_codes = [ 2000 ] }

let multi_scheme =
  {
    customer_codes = [ 4000; 4010 ];
    peer_codes = [ 1000; 1010; 1020 ];
    provider_codes = [ 2000; 2010; 2020 ];
  }

let pick codes neighbor =
  match codes with
  | [] -> None
  | _ :: _ -> Some (List.nth codes (Asn.to_int neighbor mod List.length codes))

let tag scheme ~self ~neighbor rel =
  let codes =
    match rel with
    | Relationship.Customer -> Some scheme.customer_codes
    | Relationship.Peer -> Some scheme.peer_codes
    | Relationship.Provider -> Some scheme.provider_codes
    | Relationship.Sibling -> None
  in
  match codes with
  | None -> None
  | Some codes -> begin
      match pick codes neighbor with
      | Some code -> Some (Community.make self code)
      | None -> None
    end

let code_class scheme code =
  (* Band interpretation: a code belongs to the class whose smallest code
     is the largest one not exceeding it — "12859:1010 and 12859:1020 are
     the same because they fall in the peer band". *)
  let base codes = List.fold_left min max_int codes in
  let bands =
    [
      (Relationship.Customer, base scheme.customer_codes);
      (Relationship.Peer, base scheme.peer_codes);
      (Relationship.Provider, base scheme.provider_codes);
    ]
    |> List.filter (fun (_, b) -> b <> max_int)
    |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
  in
  let rec locate current = function
    | [] -> current
    | (rel, b) :: rest -> if code >= b then locate (Some rel) rest else current
  in
  locate None bands

let no_reexport_code = 65000

type t = { asn : Asn.t; import : import_policy; scheme : community_scheme option }

let default asn = { asn; import = default_import; scheme = None }
