type origin = Igp | Egp | Incomplete

type source = Ebgp | Ibgp | Local

type t = {
  prefix : Rpi_net.Prefix.t;
  next_hop : Rpi_net.Ipv4.t;
  as_path : As_path.t;
  origin : origin;
  local_pref : int option;
  med : int option;
  communities : Community.Set.t;
  source : source;
  igp_metric : int;
  router_id : Rpi_net.Ipv4.t;
  peer_as : Asn.t option;
}

let default_local_pref = 100

let make ~prefix ~next_hop ~as_path ?(origin = Igp) ?local_pref ?med
    ?(communities = Community.Set.empty) ?(source = Ebgp) ?(igp_metric = 0)
    ?(router_id = Rpi_net.Ipv4.of_int32_exn 0) ?peer_as () =
  {
    prefix;
    next_hop;
    as_path;
    origin;
    local_pref;
    med;
    communities;
    source;
    igp_metric;
    router_id;
    peer_as;
  }

let effective_local_pref r =
  match r.local_pref with Some v -> v | None -> default_local_pref

let effective_med r =
  match r.med with Some v -> v | None -> 0

let next_hop_as r =
  match As_path.first_hop r.as_path with
  | Some _ as hop -> hop
  | None -> r.peer_as

let origin_as r = As_path.origin_as r.as_path

(* Declaration-order ranks: an explicit total order for sorts and
   dedup, so nothing structural-compares these variants.  The decision
   process has its own semantic ranks in Decision (where Local outranks
   eBGP); these are for canonical ordering only. *)
let origin_rank = function Igp -> 0 | Egp -> 1 | Incomplete -> 2
let source_rank = function Ebgp -> 0 | Ibgp -> 1 | Local -> 2

let origin_to_string = function
  | Igp -> "i"
  | Egp -> "e"
  | Incomplete -> "?"

let origin_of_substring s ~pos ~len =
  let is short long =
    Rpi_net.Wire.substring_is s ~pos ~len short || Rpi_net.Wire.substring_is s ~pos ~len long
  in
  if is "i" "IGP" then Ok Igp
  else if is "e" "EGP" then Ok Egp
  else if is "?" "incomplete" then Ok Incomplete
  else Error (Printf.sprintf "invalid origin %S" (String.sub s pos len))

let origin_of_string s = Rpi_net.Wire.of_string origin_of_substring s

let pp fmt r =
  Format.fprintf fmt "%a via %a path [%a] lp=%d origin=%s"
    Rpi_net.Prefix.pp r.prefix Rpi_net.Ipv4.pp r.next_hop As_path.pp r.as_path
    (effective_local_pref r) (origin_to_string r.origin)

let[@rpilint.hot] compare a b =
  let c = Rpi_net.Prefix.compare a.prefix b.prefix in
  if c <> 0 then c
  else
    let c = As_path.compare a.as_path b.as_path in
    if c <> 0 then c
    else
      let c = Rpi_net.Ipv4.compare a.next_hop b.next_hop in
      if c <> 0 then c
      else
        let c = Int.compare (origin_rank a.origin) (origin_rank b.origin) in
        if c <> 0 then c
        else
          let c = Option.compare Int.compare a.local_pref b.local_pref in
          if c <> 0 then c
          else
            let c = Option.compare Int.compare a.med b.med in
            if c <> 0 then c
            else
              let c = Community.Set.compare a.communities b.communities in
              if c <> 0 then c
              else
                let c = Int.compare (source_rank a.source) (source_rank b.source) in
                if c <> 0 then c
                else
                  let c = Int.compare a.igp_metric b.igp_metric in
                  if c <> 0 then c
                  else
                    let c = Rpi_net.Ipv4.compare a.router_id b.router_id in
                    if c <> 0 then c else Option.compare Asn.compare a.peer_as b.peer_as

let equal a b = compare a b = 0
