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
