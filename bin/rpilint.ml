(* rpilint: the repo's static-analysis pass.  Loads dune's .cmt/.cmti
   artifacts for every .ml/.mli under the given roots with compiler-libs
   and enforces the domain-safety and hot-path rules in Rpi_lint.Rule
   over their Typedtrees; Rpi_lint.Pass runs the whole pass.  The rules
   run over the whole tree at once, so the interprocedural ones
   (domain-race, blocking-in-eventloop) follow calls across modules.
   unused-export also reads the units of every caller root (lib bin
   bench examples perfbench test), whatever the roots given.

     rpilint lib bin bench examples            # text report
     rpilint --json ...                        # NDJSON, one object per finding
     rpilint --rules domain-race,missing-mli   # a subset of rule ids ("all" names every rule)
     rpilint --list                            # the rule catalogue (markdown)
     rpilint --baseline lint.allow ...         # apply the checked-in allowlist

   Exit codes: 0 clean, 1 findings, 2 operational errors (a baseline
   that does not parse, an unknown --rules id, a missing path, an
   unreadable .cmt, or a source no loaded .cmt/.cmti covers: the last
   two print as cmt-error diagnostics); cmdliner's own usage errors
   exit 124. *)

module Rule = Rpi_lint.Rule
module Diagnostic = Rpi_lint.Diagnostic
module Baseline = Rpi_lint.Baseline
module Typed_engine = Rpi_lint.Typed_engine
module Pass = Rpi_lint.Pass

let print_rule_table () =
  print_endline "# rpilint rule catalogue";
  print_endline "";
  print_endline
    "<!-- Generated by `rpilint --list` via the dune promote rule; do not \
     edit by hand. -->";
  print_endline "";
  print_endline "| rule | summary |";
  print_endline "| --- | --- |";
  List.iter
    (fun (r : Rule.t) -> Printf.printf "| `%s` | %s |\n" r.Rule.id r.Rule.summary)
    Rule.all;
  print_endline "";
  List.iter
    (fun (r : Rule.t) ->
      Printf.printf "## `%s`\n\n%s\n\n" r.Rule.id r.Rule.rationale)
    Rule.all;
  0

(* --rules takes a comma-separated list of rule ids and/or "all";
   absent means all. *)
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
        | name :: rest -> (
            match Rule.find name with
            | Some r -> go (r.Rule.id :: acc) rest
            | None ->
                Error
                  (Printf.sprintf
                     "unknown rule %S (try --list, or all)"
                     name))
      in
      Result.map (List.sort_uniq String.compare) (go [] names)

let run list_rules rules_spec json baseline_path paths =
  if list_rules then print_rule_table ()
  else
    match resolve_rules rules_spec with
    | Error e ->
        prerr_endline ("rpilint: " ^ e);
        2
    | Ok rules -> (
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
            let paths = match paths with [] -> Pass.default_roots | _ -> paths in
            match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
            | Some missing ->
                prerr_endline
                  (Printf.sprintf "rpilint: no such file or directory: %s"
                     missing);
                2
            | None ->
                let findings, timing = Pass.run ~rules ~baseline paths in
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
                          ("files", Rpi_json.Int timing.Pass.files);
                          ("cmt_units", Rpi_json.Int timing.Pass.cmt_units);
                          ("cmt_load_ms", Rpi_json.Float timing.Pass.cmt_load_ms);
                        ]
                       @ List.map
                           (fun (id, ms) -> (id ^ "_ms", Rpi_json.Float ms))
                           timing.Pass.rule_ms));
                let errors =
                  List.exists
                    (fun (d : Diagnostic.t) ->
                      String.equal d.Diagnostic.rule Typed_engine.cmt_error_rule)
                    findings
                in
                if errors then begin
                  if not json then
                    prerr_endline
                      "rpilint: input could not be fully analysed (cmt-error \
                       above)";
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
          "Comma-separated rule ids, or $(b,all), to run; default all.")

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
