let default_roots = [ "lib"; "bin"; "bench"; "examples" ]

type timing = {
  files : int;
  cmt_units : int;
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
   leading "./" (the spelling the compiler records in a .cmt); sorted,
   no duplicates. *)
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

(* Every .cmt under the roots, a file root's under its directory.  They
   live in dune's dot-directories (lib/sim/.rpi_sim.objs/byte/), which
   [sources] skips, so this walk descends everywhere except _build and
   .git.  A directory with none — a repo checkout rather than dune's
   build tree — is retried under _build/default/<dir>. *)
let cmts roots =
  let enter name = not (String.equal name "_build" || String.equal name ".git") in
  let leaf acc path = if Filename.check_suffix path ".cmt" then path :: acc else acc in
  let under dir = fold ~enter ~leaf [] dir in
  List.concat_map
    (fun root ->
      let dir =
        if Sys.file_exists root && not (Sys.is_directory root) then
          Filename.dirname root
        else root
      in
      match under dir with
      | [] ->
          let fallback = Filename.concat (Filename.concat "_build" "default") dir in
          if Sys.file_exists fallback then under fallback else []
      | found -> found)
    roots

let timed cell f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  cell := ((Unix.gettimeofday () -. t0) *. 1000.0) +. !cell;
  r

let file_finding rule file message = { Diagnostic.file; line = 1; col = 0; rule; message }

let load_units cmt_paths report_error =
  List.filter_map
    (fun path ->
      match Typed_engine.load_cmt path with
      | Error msg ->
          report_error (file_finding Typed_engine.cmt_error_rule path msg);
          None
      | Ok u -> u)
    (List.sort_uniq String.compare cmt_paths)

let missing_mli files =
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && String.starts_with ~prefix:"lib/" f
        && not (Sys.file_exists (f ^ "i"))
      then
        Some
          (file_finding Rule.missing_mli.Rule.id f
             (Printf.sprintf "library module has no interface; add %si" f))
      else None)
    files

(* The walked sources no loaded unit compiled: nothing checked them. *)
let uncovered ~files units =
  let covered =
    List.concat_map
      (fun (u : Typed_engine.unit_info) ->
        u.Typed_engine.tu_file
        :: Option.fold ~none:[]
             ~some:(fun (i : Typed_engine.interface) -> [ i.Typed_engine.ti_file ])
             u.Typed_engine.tu_interface)
      units
  in
  List.filter_map
    (fun f ->
      if List.mem f covered then None
      else
        Some
          (file_finding Typed_engine.cmt_error_rule f
             "no loaded .cmt/.cmti was compiled from this source, so no rule \
              checked it; run `dune build @lint` first"))
    files

let run ~rules ~baseline roots =
  let selected id = List.mem id rules in
  let files = sources roots in
  let cmt_load_ms = ref 0.0 in
  let cmt_errors = ref [] in
  let load cmt_paths =
    timed cmt_load_ms (fun () ->
        load_units cmt_paths (fun d -> cmt_errors := d :: !cmt_errors))
  in
  let lint_cmts = cmts roots in
  (* A unit is linted only when its recorded source was walked, so
     artifacts of renamed or deleted files and a file root's siblings
     cause no findings; a sibling can still be a caller. *)
  let units, unwalked =
    List.partition
      (fun (u : Typed_engine.unit_info) -> List.mem u.Typed_engine.tu_file files)
      (load lint_cmts)
  in
  let callers =
    if selected Rule.unused_export.Rule.id then
      let caller_files = sources Rule.caller_roots in
      List.filter
        (fun (u : Typed_engine.unit_info) ->
          List.mem u.Typed_engine.tu_file caller_files)
        (unwalked
        @ load
            (List.filter
               (fun p -> not (List.mem p lint_cmts))
               (cmts Rule.caller_roots)))
    else []
  in
  let rule_ms = List.map (fun (r : Rule.t) -> (r.Rule.id, ref 0.0)) Rule.all in
  let findings =
    List.concat_map
      (fun (id, cell) ->
        if not (selected id) then []
        else
          timed cell (fun () ->
              if String.equal id Rule.missing_mli.Rule.id then missing_mli files
              else Typed_engine.lint_units ~rules:[ id ] ~callers units))
      rule_ms
  in
  let findings =
    findings @ !cmt_errors @ uncovered ~files units
    |> Baseline.apply baseline
    |> List.sort_uniq Diagnostic.compare
  in
  ( findings,
    {
      files = List.length files;
      cmt_units = List.length units + List.length callers;
      cmt_load_ms = !cmt_load_ms;
      rule_ms = List.map (fun (id, cell) -> (id, !cell)) rule_ms;
    } )
