type entry = { rule : string; path : string }
type t = entry list

let empty = []

(* "lib/prng" covers every file under it; "lib/stats/table.ml" covers one
   file.  Paths are compared textually, so entries use the same relative
   spelling the driver reports ("lib/...", no leading "./"). *)
let covers entry ~file =
  String.equal entry.path file
  || String.starts_with ~prefix:(entry.path ^ "/") file

let mem t ~rule ~file =
  List.exists (fun e -> String.equal e.rule rule && covers e ~file) t

let parse_string contents =
  let lines = String.split_on_char '\n' contents in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if String.equal line "" || line.[0] = '#' then go (n + 1) acc rest
        else
          match String.index_opt line ' ' with
          | None ->
              Error
                (Printf.sprintf
                   "baseline line %d: expected \"<rule-id> <path>\", got %S" n
                   line)
          | Some i ->
              let rule = String.sub line 0 i in
              let path =
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              in
              if Option.is_none (Rule.find rule) then
                Error (Printf.sprintf "baseline line %d: unknown rule %S" n rule)
              else if String.equal path "" then
                Error (Printf.sprintf "baseline line %d: missing path" n)
              else go (n + 1) ({ rule; path } :: acc) rest)
  in
  go 1 [] lines

let apply t diags =
  List.filter
    (fun (d : Diagnostic.t) ->
      not (mem t ~rule:d.Diagnostic.rule ~file:d.Diagnostic.file))
    diags

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> parse_string contents
  | exception Sys_error msg -> Error msg
