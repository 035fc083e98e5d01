(* Persistence workflow (Sections 5.1.4, Figs. 6-7): evolve export
   policies over several days, snapshot a provider's table each day, and
   watch prefixes appear, vanish, re-route and shift between SA and
   non-SA — the day-over-day diffing the paper did on RouteViews archives.

   Run with: dune exec examples/persistence_watch.exe *)

module Asn = Rpi_bgp.Asn
module Rib = Rpi_bgp.Rib
module Prefix_set = Rpi_net.Prefix_set
module Scenario = Rpi_dataset.Scenario
module Timeline = Rpi_sim.Timeline
module Vantage = Rpi_sim.Vantage
module Export_infer = Rpi_core.Export_infer
module Persistence = Rpi_core.Persistence

let () =
  Logs.set_level (Some Logs.Warning);
  let config = { Scenario.small_config with Scenario.seed = 99 } in
  print_endline "Building scenario and evolving policies over 7 daily epochs...";
  let s = Scenario.build ~config () in
  let provider = Asn.of_int 1 in
  let policy = Scenario.policy_of s provider in
  let rng = Rpi_prng.Prng.create ~seed:123 in
  let epochs =
    Timeline.evolve rng ~graph:s.Scenario.graph ~churn:Timeline.monthly_churn ~epochs:7
      s.Scenario.atoms
  in
  (* The provider's table follows the epochs through a watch: each day's
     announce/withdraw deltas re-derive only the atoms that changed. *)
  let w =
    Vantage.watch ~decision:s.Scenario.decision s.Scenario.network
      (Vantage.Looking_glass { policy; vantage = provider })
  in
  let snapshot (prev : Timeline.epoch) (ep : Timeline.epoch) =
    Vantage.advance w (Timeline.deltas_between prev ep);
    let rib = Vantage.table w in
    let origins = Rpi_sim.Atom.origin_groups ep.Timeline.atoms in
    let report = Export_infer.analyze s.Scenario.graph ~provider ~origins rib in
    (rib, report)
  in
  let _, rev_snapshots =
    List.fold_left
      (fun (prev, acc) ep -> (ep, snapshot prev ep :: acc))
      ({ Timeline.index = -1; atoms = [] }, [])
      epochs
  in
  let snapshots = List.rev rev_snapshots in
  (* Day-over-day diffs. *)
  let rec walk day = function
    | (old_rib, _) :: ((new_rib, _) :: _ as rest) ->
        let d = Rib.diff ~old_rib new_rib in
        Printf.printf "day %d -> %d: +%d prefixes, -%d prefixes, %d re-routed, %d unchanged\n"
          day (day + 1)
          (List.length d.Rib.added) (List.length d.Rib.removed)
          (List.length d.Rib.best_changed) d.Rib.unchanged;
        walk (day + 1) rest
    | [ _ ] | [] -> ()
  in
  walk 1 snapshots;
  (* SA persistence across the window. *)
  let observations =
    List.map
      (fun (rib, (report : Export_infer.report)) ->
        {
          Persistence.all_prefixes = Prefix_set.of_list (Rib.prefixes rib);
          sa_prefixes =
            Prefix_set.of_list
              (List.map
                 (fun (r : Export_infer.sa_record) -> r.Export_infer.prefix)
                 report.Export_infer.sa);
        })
      snapshots
  in
  let up = Persistence.uptimes observations in
  Printf.printf
    "\nOver %d days at %s: %d prefixes were SA at least once; %.1f%% shifted SA -> non-SA.\n"
    (List.length snapshots) (Asn.to_label provider) up.Persistence.total_sa_touched
    up.Persistence.pct_shifting;
  print_endline "Uptime histogram (days present, prefixes remaining SA / shifting):";
  List.iter
    (fun k ->
      let get l = match List.assoc_opt k l with Some v -> v | None -> 0 in
      Printf.printf "  %d days: %4d remaining, %4d shifting\n" k
        (get up.Persistence.remaining_sa) (get up.Persistence.shifting))
    (List.init up.Persistence.max_uptime (fun i -> i + 1))
