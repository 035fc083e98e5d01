(* rpilint: the repo's static-analysis pass.  Parses every .ml/.mli under
   the given roots with compiler-libs and enforces the domain-safety and
   hot-path rules in Rpi_lint.Rule.  The parsetree rules walk sources
   directly; the typedtree rules (domain-race, hot-path-alloc,
   intern-id-escape) load dune's .cmt artifacts for the same roots and
   run interprocedurally over the whole tree at once.

     rpilint lib bin bench examples            # text report
     rpilint --json ...                        # NDJSON, one object per finding
     rpilint --rules typed ...                 # only the typedtree rules
     rpilint --rules domain-race,missing-mli   # an explicit subset
     rpilint --list                            # the rule catalogue (markdown)
     rpilint --baseline lint.allow ...         # apply the checked-in allowlist

   Exit codes: 0 clean, 1 findings, 2 operational errors (bad CLI/baseline,
   unreadable input, parse-error or cmt-error diagnostics). *)

module Rule = Rpi_lint.Rule
module Diagnostic = Rpi_lint.Diagnostic
module Baseline = Rpi_lint.Baseline
module Engine = Rpi_lint.Engine
module Typed_engine = Rpi_lint.Typed_engine
module Walk = Rpi_lint.Walk

let print_rule_table () =
  print_endline "# rpilint rule catalogue";
  print_endline "";
  print_endline
    "<!-- Generated by `rpilint --list` via the dune promote rule; do not \
     edit by hand. -->";
  print_endline "";
  print_endline "| rule | engine | summary |";
  print_endline "| --- | --- | --- |";
  List.iter
    (fun (r : Rule.t) ->
      Printf.printf "| `%s` | %s | %s |\n" r.Rule.id
        (Rule.engine_name r.Rule.engine)
        r.Rule.summary)
    Rule.all;
  print_endline "";
  List.iter
    (fun (r : Rule.t) ->
      Printf.printf "## `%s`\n\n%s\n\n" r.Rule.id r.Rule.rationale)
    Rule.all;
  0

(* --rules takes a comma-separated list of rule ids and/or the groups
   "typed", "untyped" and "all"; absent means all. *)
let resolve_rules spec =
  match spec with
  | None -> Ok (List.map (fun r -> r.Rule.id) Rule.all)
  | Some spec ->
      let names =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun s -> not (String.equal s ""))
      in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | "all" :: rest ->
            go (List.rev_map (fun r -> r.Rule.id) Rule.all @ acc) rest
        | "typed" :: rest ->
            go (List.rev_map (fun r -> r.Rule.id) Rule.typed @ acc) rest
        | "untyped" :: rest ->
            go (List.rev_map (fun r -> r.Rule.id) Rule.untyped @ acc) rest
        | name :: rest -> (
            match Rule.find name with
            | Some r -> go (r.Rule.id :: acc) rest
            | None ->
                Error
                  (Printf.sprintf
                     "unknown rule %S (try --list; groups: typed, untyped, \
                      all)"
                     name))
      in
      Result.map (List.sort_uniq String.compare) (go [] names)

let timed cell f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  cell := ((Unix.gettimeofday () -. t0) *. 1000.0) +. !cell;
  r

(* Load every discovered cmt, keeping only units whose recorded source
   file is among the walked sources — stale artifacts for renamed or
   deleted files must not produce phantom findings. *)
let load_units ~files cmt_paths report_error =
  let wanted = List.fold_left (fun s f -> f :: s) [] files in
  List.filter_map
    (fun path ->
      match Typed_engine.load_cmt path with
      | Error msg ->
          report_error
            {
              Diagnostic.file = path;
              line = 1;
              col = 0;
              rule = Typed_engine.cmt_error_rule;
              message = msg;
            };
          None
      | Ok None -> None
      | Ok (Some u) ->
          if List.mem u.Typed_engine.tu_file wanted then Some u else None)
    (List.sort_uniq String.compare cmt_paths)

let run list_rules rules_spec json baseline_path paths =
  if list_rules then print_rule_table ()
  else
    match resolve_rules rules_spec with
    | Error e ->
        prerr_endline ("rpilint: " ^ e);
        2
    | Ok selected -> (
        let baseline =
          match baseline_path with
          | None -> Ok Baseline.empty
          | Some p -> Baseline.load p
        in
        match baseline with
        | Error e ->
            prerr_endline ("rpilint: " ^ e);
            2
        | Ok baseline -> (
            let paths =
              match paths with
              | [] -> [ "lib"; "bin"; "bench"; "examples" ]
              | _ -> paths
            in
            match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
            | Some missing ->
                prerr_endline
                  (Printf.sprintf "rpilint: no such file or directory: %s"
                     missing);
                2
            | None ->
                let selected_has l =
                  List.exists (fun id -> List.mem id selected) l
                in
                let want_untyped =
                  selected_has (List.map (fun r -> r.Rule.id) Rule.untyped)
                in
                let typed_selected =
                  List.filter
                    (fun (r : Rule.t) -> List.mem r.Rule.id selected)
                    Rule.typed
                in
                let files = Walk.sources paths in
                let untyped_ms = ref 0.0 in
                let cmt_load_ms = ref 0.0 in
                let rule_ms =
                  List.map (fun (r : Rule.t) -> (r.Rule.id, ref 0.0)) Rule.typed
                in
                let untyped_findings =
                  if want_untyped then
                    timed untyped_ms (fun () ->
                        List.concat_map Engine.lint_path files
                        @ Engine.missing_mli files)
                    |> List.filter (fun (d : Diagnostic.t) ->
                           List.mem d.Diagnostic.rule selected
                           || String.equal d.Diagnostic.rule
                                Engine.parse_error_rule)
                  else []
                in
                let cmt_errors = ref [] in
                let units =
                  if typed_selected = [] then []
                  else
                    timed cmt_load_ms (fun () ->
                        load_units ~files
                          (Walk.cmts paths)
                          (fun d -> cmt_errors := d :: !cmt_errors))
                in
                let typed_findings =
                  List.concat_map
                    (fun (r : Rule.t) ->
                      timed
                        (List.assoc r.Rule.id rule_ms)
                        (fun () ->
                          Typed_engine.lint_units ~rules:[ r.Rule.id ] units))
                    typed_selected
                in
                let findings =
                  untyped_findings @ typed_findings @ !cmt_errors
                  |> Engine.apply_baseline baseline
                  |> List.sort_uniq Diagnostic.compare
                in
                List.iter
                  (fun d ->
                    if json then Rpi_json.to_channel stdout (Diagnostic.to_json d)
                    else print_endline (Diagnostic.to_string d))
                  findings;
                (* Per-rule wall time goes to stderr so the NDJSON findings
                   stream on stdout stays byte-stable across runs. *)
                if json then
                  Rpi_json.to_channel stderr
                    (Rpi_json.Obj
                       ([
                          ("event", Rpi_json.String "timing");
                          ("files", Rpi_json.Int (List.length files));
                          ("cmt_units", Rpi_json.Int (List.length units));
                          ("parse_untyped_ms", Rpi_json.Float !untyped_ms);
                          ("cmt_load_ms", Rpi_json.Float !cmt_load_ms);
                        ]
                       @ List.map
                           (fun (id, ms) -> (id ^ "_ms", Rpi_json.Float !ms))
                           rule_ms));
                let errors =
                  List.exists
                    (fun (d : Diagnostic.t) ->
                      String.equal d.Diagnostic.rule Engine.parse_error_rule
                      || String.equal d.Diagnostic.rule
                           Typed_engine.cmt_error_rule)
                    findings
                in
                if errors then begin
                  if not json then
                    prerr_endline
                      "rpilint: input could not be fully analysed (parse-error \
                       / cmt-error above)";
                  2
                end
                else if findings = [] then 0
                else begin
                  if not json then
                    Printf.eprintf "rpilint: %d finding%s\n"
                      (List.length findings)
                      (if List.length findings = 1 then "" else "s");
                  1
                end))

open Cmdliner

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ]
        ~doc:
          "Print the rule catalogue as markdown (the source of \
           LINT_RULES.md) and exit.")

let rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"LIST"
        ~doc:
          "Comma-separated rule ids and/or groups ($(b,typed), \
           $(b,untyped), $(b,all)) to run; default all.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit NDJSON (one object per finding) on stdout and a single \
           timing object on stderr.")

let baseline_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Checked-in allowlist of reviewed findings (one \"<rule-id> \
           <path>\" per line).")

let paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint (default: lib bin bench examples).")

let () =
  let doc = "Static analysis: domain-safety and hot-path invariants" in
  let cmd =
    Cmd.v
      (Cmd.info "rpilint" ~doc)
      Term.(
        const run $ list_arg $ rules_arg $ json_arg $ baseline_arg $ paths_arg)
  in
  exit (Cmd.eval' cmd)
