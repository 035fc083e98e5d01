let default_roots = [ "lib"; "bin"; "bench"; "examples" ]

type timing = {
  files : int;
  cmt_units : int;
  untyped_ms : float;
  cmt_load_ms : float;
  rule_ms : (string * float) list;
}

let strip_dot_slash path =
  if String.starts_with ~prefix:"./" path then
    String.sub path 2 (String.length path - 2)
  else path

(* Fold [leaf] over every non-directory below [path], in name order,
   descending into the entries [enter] accepts. *)
let rec fold ~enter ~leaf acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if enter name then fold ~enter ~leaf acc (Filename.concat path name)
           else acc)
         acc
  else leaf acc path

(* Every .ml/.mli under the roots (files or directories), skipping names
   that start with a dot and _build, as repo-relative paths without a
   leading "./" (what Engine.lint_path expects); sorted, no duplicates. *)
let sources roots =
  let enter name =
    String.length name > 0 && name.[0] <> '.' && not (String.equal name "_build")
  in
  let leaf acc path =
    if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then strip_dot_slash path :: acc
    else acc
  in
  List.fold_left (fold ~enter ~leaf) [] roots |> List.sort_uniq String.compare

(* Every .cmt under the roots.  They live in dune's dot-directories
   (lib/sim/.rpi_sim.objs/byte/), which [sources] skips, so this walk
   descends everywhere except _build and .git.  A root with none — a repo
   checkout rather than dune's build tree — is retried under
   _build/default/<root>. *)
let cmts roots =
  let enter name = not (String.equal name "_build" || String.equal name ".git") in
  let leaf acc path = if Filename.check_suffix path ".cmt" then path :: acc else acc in
  let under root = fold ~enter ~leaf [] root in
  List.concat_map
    (fun root ->
      match under root with
      | [] ->
          let fallback = Filename.concat (Filename.concat "_build" "default") root in
          if Sys.file_exists fallback then under fallback else []
      | found -> found)
    roots

let timed cell f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  cell := ((Unix.gettimeofday () -. t0) *. 1000.0) +. !cell;
  r

(* Load every cmt, keeping only units whose recorded source file is
   among the walked sources — stale artifacts for renamed or deleted
   files must not produce phantom findings. *)
let load_units ~files cmt_paths report_error =
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
      | Ok (Some u) -> if List.mem u.Typed_engine.tu_file files then Some u else None)
    (List.sort_uniq String.compare cmt_paths)

let run ~rules ~baseline roots =
  let selected id = List.mem id rules in
  let files = sources roots in
  let untyped_ms = ref 0.0 in
  let cmt_load_ms = ref 0.0 in
  let untyped =
    if List.exists (fun (r : Rule.t) -> selected r.Rule.id) Rule.untyped then
      timed untyped_ms (fun () ->
          List.concat_map Engine.lint_path files @ Engine.missing_mli files)
      |> List.filter (fun (d : Diagnostic.t) ->
             selected d.Diagnostic.rule
             || String.equal d.Diagnostic.rule Engine.parse_error_rule)
    else []
  in
  let rule_ms = List.map (fun (r : Rule.t) -> (r.Rule.id, ref 0.0)) Rule.typed in
  let typed = List.filter (fun (id, _) -> selected id) rule_ms in
  let cmt_errors = ref [] in
  let load ~files cmt_paths =
    timed cmt_load_ms (fun () ->
        load_units ~files cmt_paths (fun d -> cmt_errors := d :: !cmt_errors))
  in
  let lint_cmts = match typed with [] -> [] | _ -> cmts roots in
  let units = load ~files lint_cmts in
  let callers =
    if selected Rule.unused_export.Rule.id then
      load
        ~files:(sources Rule.caller_roots)
        (List.filter
           (fun p -> not (List.mem p lint_cmts))
           (cmts Rule.caller_roots))
    else []
  in
  let typed_findings =
    List.concat_map
      (fun (id, cell) ->
        timed cell (fun () -> Typed_engine.lint_units ~rules:[ id ] ~callers units))
      typed
  in
  let findings =
    untyped @ typed_findings @ !cmt_errors
    |> Engine.apply_baseline baseline
    |> List.sort_uniq Diagnostic.compare
  in
  ( findings,
    {
      files = List.length files;
      cmt_units = List.length units + List.length callers;
      untyped_ms = !untyped_ms;
      cmt_load_ms = !cmt_load_ms;
      rule_ms = List.map (fun (id, cell) -> (id, !cell)) rule_ms;
    } )
