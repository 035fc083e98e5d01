(* Golden-pinned metrics for the seed-42 default scenario.

   goldens.json pins every metric of the three headline experiments
   (table2: typical local preference, table5: SA-prefix share, table10:
   peer export completeness) and of the two persistence experiments
   (fig6+7: SA persistence over a policy timeline, churn-persistence: the
   same under topology churn, solved incrementally).  The whole pipeline
   sits under these numbers — topology generation, routing simulation,
   incremental re-propagation, relationship/import/export inference — so
   an unintended behaviour change anywhere shows up as a drifted metric
   here even when every unit test still passes.

   Regenerating after an INTENDED change:

     dune exec bin/experiments.exe -- run table2 table5 table10 fig6+7 \
       churn-persistence --jobs 1 --json

   then copy each experiment's "metrics" object into test/goldens.json
   (keep "seed": 42).  Regenerate only when the change is understood and
   deliberate — that is the point of a golden. *)

module Scenario = Rpi_dataset.Scenario
module Context = Rpi_experiments.Context
module Exp = Rpi_experiments.Exp
module Runner = Rpi_runner.Runner

let goldens_path = "goldens.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [(experiment id, [(metric name, value)])] straight out of goldens.json. *)
let load_goldens () =
  match Rpi_json.of_string (read_file goldens_path) with
  | Error e -> Alcotest.failf "goldens.json does not parse: %s" e
  | Ok (Rpi_json.Obj fields) -> begin
      (match List.assoc_opt "seed" fields with
      | Some (Rpi_json.Int 42) -> ()
      | _ -> Alcotest.fail "goldens.json must record \"seed\": 42");
      match List.assoc_opt "experiments" fields with
      | Some (Rpi_json.Obj exps) ->
          List.map
            (fun (id, metrics) ->
              match metrics with
              | Rpi_json.Obj ms ->
                  ( id,
                    List.map
                      (fun (name, v) ->
                        match v with
                        | Rpi_json.Float f -> (name, f)
                        | Rpi_json.Int i -> (name, float_of_int i)
                        | _ ->
                            Alcotest.failf "golden %s.%s is not a number" id name)
                      ms )
              | _ -> Alcotest.failf "golden %s is not an object" id)
            exps
      | _ -> Alcotest.fail "goldens.json lacks an \"experiments\" object"
    end
  | Ok _ -> Alcotest.fail "goldens.json is not an object"

let experiment id =
  match Exp.find id with
  | Some e -> e
  | None -> Alcotest.failf "no experiment %S in the catalogue" id

(* Relative tolerance: the metrics are pure functions of the seed, so in
   practice they match to the last bit, but a float-printing round trip
   through goldens.json must never be the thing that fails the build. *)
let close expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  Float.abs (expected -. actual) <= 1e-6 *. scale

let test_headline_metrics () =
  let goldens = load_goldens () in
  if goldens = [] then Alcotest.fail "goldens.json pins no experiments";
  let ctx = Context.create ~config:Scenario.default_config () in
  let report = Runner.run ~jobs:1 ctx (List.map (fun (id, _) -> experiment id) goldens) in
  List.iter2
    (fun (id, expected_metrics) { Runner.outcome; _ } ->
      Alcotest.(check string) "outcome id" id outcome.Exp.id;
      List.iter
        (fun (name, expected) ->
          match List.assoc_opt name outcome.Exp.metrics with
          | None -> Alcotest.failf "%s: metric %S disappeared" id name
          | Some actual ->
              if not (close expected actual) then
                Alcotest.failf "%s: metric %S drifted: golden %.17g, got %.17g" id
                  name expected actual)
        expected_metrics;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name expected_metrics) then
            Alcotest.failf
              "%s: new metric %S is not pinned — regenerate goldens.json" id name)
        outcome.Exp.metrics)
    goldens report.Runner.results

let () =
  Alcotest.run "goldens"
    [
      ( "headline-metrics",
        [ Alcotest.test_case "pinned experiments vs goldens" `Slow
            test_headline_metrics ] );
    ]
