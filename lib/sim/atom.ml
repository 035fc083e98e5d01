module Asn = Rpi_bgp.Asn
module Prefix = Rpi_net.Prefix

type provider_scope = All_providers | Only_providers of Asn.Set.t

type t = {
  id : int;
  origin : Asn.t;
  prefixes : Prefix.t list;
  provider_scope : provider_scope;
  no_export_up : Asn.Set.t;
  withhold_peers : Asn.Set.t;
  suppressed_at : Asn.Set.t;
  prepend_to : (Asn.t * int) list;
}

let make ~id ~origin ?(provider_scope = All_providers) ?(no_export_up = Asn.Set.empty)
    ?(withhold_peers = Asn.Set.empty) ?(suppressed_at = Asn.Set.empty) ?(prepend_to = [])
    prefixes =
  {
    id;
    origin;
    prefixes;
    provider_scope;
    no_export_up;
    withhold_peers;
    suppressed_at;
    prepend_to;
  }

let prepend_count t ~neighbor =
  match
    List.find_opt (fun (nb, _) -> Asn.equal nb neighbor) t.prepend_to
  with
  | Some (_, n) -> max 0 n
  | None -> 0

let vanilla ~id ~origin prefixes = make ~id ~origin prefixes

let is_selective t =
  (match t.provider_scope with
  | All_providers -> false
  | Only_providers _ -> true)
  || not (Asn.Set.is_empty t.no_export_up)

let scope_equal a b =
  match (a, b) with
  | All_providers, All_providers -> true
  | Only_providers x, Only_providers y -> Asn.Set.equal x y
  | (All_providers | Only_providers _), _ -> false

let equal a b =
  a.id = b.id
  && Asn.equal a.origin b.origin
  && List.equal Prefix.equal a.prefixes b.prefixes
  && scope_equal a.provider_scope b.provider_scope
  && Asn.Set.equal a.no_export_up b.no_export_up
  && Asn.Set.equal a.withhold_peers b.withhold_peers
  && Asn.Set.equal a.suppressed_at b.suppressed_at
  && List.equal
       (fun (nb1, n1) (nb2, n2) -> Asn.equal nb1 nb2 && Int.equal n1 n2)
       a.prepend_to b.prepend_to

let origin_groups atoms =
  List.fold_left
    (fun groups t ->
      Asn.Map.update t.origin
        (fun rev -> Some (List.rev_append t.prefixes (Option.value ~default:[] rev)))
        groups)
    Asn.Map.empty atoms
  |> Asn.Map.bindings
  |> List.map (fun (origin, rev) -> (origin, List.rev rev))

let pp fmt t =
  let scope =
    match t.provider_scope with
    | All_providers -> "all"
    | Only_providers s ->
        Printf.sprintf "{%s}"
          (Asn.Set.elements s |> List.map Asn.to_string |> String.concat ",")
  in
  Format.fprintf fmt "atom#%d origin=%a prefixes=%d providers=%s" t.id Asn.pp t.origin
    (List.length t.prefixes) scope
