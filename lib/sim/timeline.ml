module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph
module Prng = Rpi_prng.Prng

type churn = {
  p_policy_change : float;
  p_outage : float;
  p_late_start : float;
  p_early_stop : float;
  p_conditional : float;
  p_primary_down : float;
}

let monthly_churn =
  {
    p_policy_change = 0.010;
    p_outage = 0.01;
    p_late_start = 0.08;
    p_early_stop = 0.06;
    p_conditional = 0.03;
    p_primary_down = 0.03;
  }

let hourly_churn =
  {
    p_policy_change = 0.002;
    p_outage = 0.004;
    p_late_start = 0.02;
    p_early_stop = 0.015;
    p_conditional = 0.03;
    p_primary_down = 0.003;
  }

type epoch = { index : int; atoms : Atom.t list }

type delta = {
  added : Atom.t list;
  removed : Atom.t list;
  changed : (Atom.t * Atom.t) list;
}

let delta_between a b =
  let by_id atoms =
    let tbl = Hashtbl.create (List.length atoms) in
    List.iter (fun (atom : Atom.t) -> Hashtbl.replace tbl atom.Atom.id atom) atoms;
    tbl
  in
  let old_tbl = by_id a.atoms and new_tbl = by_id b.atoms in
  let added =
    List.filter (fun (atom : Atom.t) -> not (Hashtbl.mem old_tbl atom.Atom.id)) b.atoms
  in
  let removed =
    List.filter (fun (atom : Atom.t) -> not (Hashtbl.mem new_tbl atom.Atom.id)) a.atoms
  in
  let changed =
    List.filter_map
      (fun (atom : Atom.t) ->
        match Hashtbl.find_opt old_tbl atom.Atom.id with
        | Some old when not (Atom.equal old atom) -> Some (old, atom)
        | Some _ | None -> None)
      b.atoms
  in
  { added; removed; changed }

(* Withdraw what left, (re-)announce what arrived or was re-specified:
   the engine re-solves a changed atom from scratch when its announce
   differs ({!Engine.Delta.Announce}), so no withdraw precedes it. *)
let deltas_between a b =
  let d = delta_between a b in
  List.map (fun (atom : Atom.t) -> Engine.Delta.Withdraw atom.Atom.id) d.removed
  @ List.map (fun atom -> Engine.Delta.Announce atom) (d.added @ List.map snd d.changed)

(* Re-sample the provider scope of [atom]: any non-empty subset of the
   origin's providers, or all of them. *)
let resample_scope rng graph (atom : Atom.t) =
  let providers = As_graph.providers graph atom.Atom.origin in
  match providers with
  | [] | [ _ ] -> { atom with Atom.provider_scope = Atom.All_providers }
  | _ :: _ :: _ ->
      if Prng.chance rng 0.4 then { atom with Atom.provider_scope = Atom.All_providers }
      else begin
        let chosen =
          List.filter (fun _ -> Prng.bool rng) providers
        in
        let chosen =
          match chosen with
          | [] -> [ Prng.choice_list rng providers ]
          | _ :: _ -> chosen
        in
        (* Keep the subset proper so the atom stays selective. *)
        let chosen =
          if List.length chosen = List.length providers then List.tl providers else chosen
        in
        { atom with Atom.provider_scope = Atom.Only_providers (Asn.Set.of_list chosen) }
      end

let evolve rng ~graph ~churn ~epochs atoms =
  if epochs < 1 then invalid_arg "Timeline.evolve: need at least one epoch";
  (* Lifetime window per atom: a minority of prefixes arrives or departs
     mid-window, spreading the uptime distribution. *)
  let lifetimes =
    List.map
      (fun (atom : Atom.t) ->
        let start =
          if Prng.chance rng churn.p_late_start then Prng.int rng epochs else 0
        in
        let stop =
          if Prng.chance rng churn.p_early_stop then
            Prng.int_in rng start (epochs - 1)
          else epochs - 1
        in
        (atom.Atom.id, (start, stop)))
      atoms
  in
  let alive id index =
    match List.assoc_opt id lifetimes with
    | Some (start, stop) -> index >= start && index <= stop
    | None -> true
  in
  (* Conditional advertisement assignments: (atom id -> primary, backup)
     scopes, fixed for the whole window. *)
  let conditionals =
    List.filter_map
      (fun (atom : Atom.t) ->
        let providers = As_graph.providers graph atom.Atom.origin in
        match providers with
        | _ :: _ :: _ when Prng.chance rng churn.p_conditional ->
            let primary = Prng.choice_list rng providers in
            let backup =
              Prng.choice_list rng
                (List.filter (fun p -> not (Asn.equal p primary)) providers)
            in
            Some (atom.Atom.id, (primary, backup))
        | _ :: _ | [] -> None)
      atoms
  in
  let conditional_scope id =
    match List.assoc_opt id conditionals with
    | Some (primary, backup) ->
        let active = if Prng.chance rng churn.p_primary_down then backup else primary in
        Some (Atom.Only_providers (Asn.Set.singleton active))
    | None -> None
  in
  let rec go index current acc =
    if index >= epochs then List.rev acc
    else begin
      let current =
        List.map
          (fun (atom : Atom.t) ->
            match conditional_scope atom.Atom.id with
            | Some scope -> { atom with Atom.provider_scope = scope }
            | None ->
                let eligible =
                  Atom.is_selective atom
                  || List.length (As_graph.providers graph atom.Atom.origin) > 1
                in
                if
                  index > 0 && eligible
                  && Prng.chance rng churn.p_policy_change
                then resample_scope rng graph atom
                else atom)
          current
      in
      let visible =
        List.filter
          (fun (atom : Atom.t) ->
            alive atom.Atom.id index && not (Prng.chance rng churn.p_outage))
          current
      in
      go (index + 1) current ({ index; atoms = visible } :: acc)
    end
  in
  go 0 atoms []
