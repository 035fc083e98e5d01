module Asn = Rpi_bgp.Asn

let classify g =
  (* Memoised descent through providers; a visiting set detects provider
     cycles, whose members get the best tier reachable outside the cycle. *)
  let memo = ref Asn.Map.empty in
  let rec tier visiting a =
    match Asn.Map.find_opt a !memo with
    | Some t -> t
    | None ->
        if Asn.Set.mem a visiting then max_int
        else begin
          let visiting = Asn.Set.add a visiting in
          let providers = As_graph.providers g a in
          let t =
            match providers with
            | [] -> 1
            | _ :: _ ->
                let best =
                  List.fold_left (fun acc p -> min acc (tier visiting p)) max_int providers
                in
                if best = max_int then 1 else best + 1
          in
          memo := Asn.Map.add a t !memo;
          t
        end
  in
  List.fold_left
    (fun acc a -> Asn.Map.add a (tier Asn.Set.empty a) acc)
    Asn.Map.empty (As_graph.ases g)

let tier1_ases g =
  As_graph.ases g |> List.filter (fun a -> As_graph.providers g a = [])

let histogram tiers =
  let counts =
    Asn.Map.fold
      (fun _ t acc ->
        let current =
          match List.assoc_opt t acc with
          | Some n -> n
          | None -> 0
        in
        (t, current + 1) :: List.remove_assoc t acc)
      tiers []
  in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) counts
