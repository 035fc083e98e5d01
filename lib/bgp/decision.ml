type config = { use_local_pref : bool; med_across_as : bool }

let default_config = { use_local_pref = true; med_across_as = false }

type step =
  | Local_pref
  | Path_length
  | Origin
  | Med
  | Ebgp_over_ibgp
  | Igp_metric
  | Router_id
  | Arbitrary

let step_to_string = function
  | Local_pref -> "local-pref"
  | Path_length -> "as-path-length"
  | Origin -> "origin"
  | Med -> "med"
  | Ebgp_over_ibgp -> "ebgp-over-ibgp"
  | Igp_metric -> "igp-metric"
  | Router_id -> "router-id"
  | Arbitrary -> "arbitrary"

let origin_rank = function
  | Route.Igp -> 0
  | Route.Egp -> 1
  | Route.Incomplete -> 2

let source_rank = function
  | Route.Local -> 0 (* local routes win the eBGP/iBGP step *)
  | Route.Ebgp -> 1
  | Route.Ibgp -> 2

(* The decision order: [compare_routes] and [deciding_step] both walk
   this list, so they cannot disagree on it. *)
let order = [ Local_pref; Path_length; Origin; Med; Ebgp_over_ibgp; Igp_metric; Router_id ]

let same_next_hop_as a b =
  match Route.next_hop_as a with
  | None -> false
  | Some x -> (
      match Route.next_hop_as b with
      | Some y -> Asn.equal x y
      | None -> false)

(* The comparison at one step; negative prefers [a].  MED compares only
   routes from one neighbour AS unless [med_across_as]. *)
let[@rpilint.hot] compare_at ~use_local_pref ~med_across_as step (a : Route.t) (b : Route.t) =
  match step with
  | Local_pref ->
      if use_local_pref then
        Int.compare (Route.effective_local_pref b) (Route.effective_local_pref a)
      else 0
  | Path_length -> Int.compare (As_path.length a.as_path) (As_path.length b.as_path)
  | Origin -> Int.compare (origin_rank a.origin) (origin_rank b.origin)
  | Med ->
      if med_across_as || same_next_hop_as a b then
        Int.compare (Route.effective_med a) (Route.effective_med b)
      else 0
  | Ebgp_over_ibgp -> Int.compare (source_rank a.source) (source_rank b.source)
  | Igp_metric -> Int.compare a.igp_metric b.igp_metric
  | Router_id -> Rpi_net.Ipv4.compare a.router_id b.router_id
  | Arbitrary -> 0

let[@rpilint.hot] rec compare_steps ~use_local_pref a b = function
  | [] -> Route.compare a b (* last-resort total tie-break *)
  | step :: rest -> (
      match compare_at ~use_local_pref ~med_across_as:true step a b with
      | 0 -> compare_steps ~use_local_pref a b rest
      | c -> c)

(* MED is compared unconditionally, for totality of the order. *)
let compare_routes ?(config = default_config) a b =
  compare_steps ~use_local_pref:config.use_local_pref a b order

let rec first_step ~use_local_pref ~med_across_as a b = function
  | [] -> Arbitrary
  | step :: rest ->
      if compare_at ~use_local_pref ~med_across_as step a b <> 0 then step
      else first_step ~use_local_pref ~med_across_as a b rest

let deciding_step ?(config = default_config) a b =
  first_step ~use_local_pref:config.use_local_pref ~med_across_as:config.med_across_as a b
    order

(* The real procedure: filter down step by step so that MED only compares
   within same-next-hop-AS groups of the surviving candidate set. *)
let select_best ?(config = default_config) candidates =
  match candidates with
  | [] -> None
  | [ r ] -> Some r
  | _ :: _ :: _ ->
      let keep_minimal key routes =
        let best = List.fold_left (fun acc r -> min acc (key r)) max_int routes in
        List.filter (fun r -> key r = best) routes
      in
      let survivors = candidates in
      let survivors =
        if config.use_local_pref then
          keep_minimal (fun r -> -Route.effective_local_pref r) survivors
        else survivors
      in
      let survivors = keep_minimal (fun r -> As_path.length r.Route.as_path) survivors in
      let survivors = keep_minimal (fun r -> origin_rank r.Route.origin) survivors in
      (* MED: eliminate any route beaten by a same-next-hop-AS rival. *)
      let survivors =
        if config.med_across_as then keep_minimal Route.effective_med survivors
        else
          List.filter
            (fun r ->
              not
                (List.exists
                   (fun other ->
                     (match (Route.next_hop_as r, Route.next_hop_as other) with
                     | Some x, Some y -> Asn.equal x y
                     | Some _, None | None, Some _ | None, None -> false)
                     && Route.effective_med other < Route.effective_med r)
                   survivors))
            survivors
      in
      let survivors = keep_minimal (fun r -> source_rank r.Route.source) survivors in
      let survivors = keep_minimal (fun r -> r.Route.igp_metric) survivors in
      let survivors =
        keep_minimal (fun r -> Rpi_net.Ipv4.to_int r.Route.router_id) survivors
      in
      begin
        match survivors with
        | r :: _ -> Some r
        | [] -> None
      end

let explain ?(config = default_config) candidates =
  match select_best ~config candidates with
  | None -> []
  | Some best ->
      (best, None)
      :: (List.filter (fun r -> not (Route.equal r best)) candidates
         |> List.map (fun r -> (r, Some (deciding_step ~config best r))))
