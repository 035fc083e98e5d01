(* The rule engine: a toplevel walk for module-level-state rules plus an
   Ast_iterator sweep for expression-level rules, over vanilla Parsetrees
   (compiler-libs 5.1).  Everything is syntactic — no typing pass — so
   each rule errs on the side of precision and the few deliberate
   exceptions live in suppression comments or the baseline. *)

open Parsetree

type ctx = {
  file : string;
  in_lib : bool;
  in_core : bool;
  defines_compare : bool;
      (* the file binds a value or parameter named [compare]; bare
         [compare] then refers to it, not to Stdlib.compare *)
  report : Diagnostic.t -> unit;
}

let diag ctx (loc : Location.t) rule message =
  let p = loc.loc_start in
  ctx.report
    {
      Diagnostic.file = ctx.file;
      line = p.pos_lnum;
      col = p.pos_cnum - p.pos_bol;
      rule;
      message;
    }

let head_module lid =
  let rec go = function
    | Longident.Lident s -> s
    | Longident.Ldot (l, _) -> go l
    | Longident.Lapply (l, _) -> go l
  in
  go lid

(* ------------------------------------------------------------------ *)
(* mutable-toplevel                                                    *)

(* Constructors of freshly-allocated mutable containers.  Atomic, Mutex,
   Condition and Semaphore are deliberately absent: they are the
   domain-safe way to share state. *)
let mutable_creator : Longident.t -> string option = function
  | Lident "ref" | Ldot (Lident "Stdlib", "ref") -> Some "ref"
  | Ldot (Lident "Hashtbl", "create")
  | Ldot (Ldot (Lident "Stdlib", "Hashtbl"), "create") ->
      Some "Hashtbl.create"
  | Ldot (Lident "Array", ("make" | "create" | "init" | "make_matrix" | "copy"))
    ->
      Some "Array.make"
  | Ldot (Lident "Bytes", ("create" | "make" | "init" | "of_string")) ->
      Some "Bytes.create"
  | Ldot (Lident "Buffer", "create") -> Some "Buffer.create"
  | Ldot (Lident "Queue", "create") -> Some "Queue.create"
  | Ldot (Lident "Stack", "create") -> Some "Stack.create"
  | _ -> None

(* Does evaluating [e] at module level yield a shared mutable value?
   [mutable_fields] are field names declared [mutable] in this file, so a
   toplevel record literal mentioning one is caught without type
   information. *)
let rec mutable_value mutable_fields e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      mutable_creator txt
  | Pexp_array _ -> Some "array literal"
  | Pexp_record (fields, _) ->
      if
        List.exists
          (fun ((lid : Longident.t Asttypes.loc), _) ->
            match lid.Asttypes.txt with
            | Longident.Lident name ->
                List.exists (String.equal name) mutable_fields
            | _ -> false)
          fields
      then Some "record with mutable field"
      else None
  | Pexp_constraint (e, _) | Pexp_lazy e | Pexp_let (_, _, e) ->
      mutable_value mutable_fields e
  | Pexp_tuple es -> List.find_map (mutable_value mutable_fields) es
  | _ -> None

let binding_name vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | _ -> "_"

let check_type_decl ctx (td : type_declaration) =
  match td.ptype_kind with
  | Ptype_record labels -> (
      match List.find_opt (fun l -> l.pld_mutable = Asttypes.Mutable) labels with
      | Some l ->
          diag ctx l.pld_loc Rule.mutable_toplevel.Rule.id
            (Printf.sprintf
               "record type '%s' has mutable field '%s'; values shared across \
                domains race — keep them per-call or behind a mutex"
               td.ptype_name.txt l.pld_name.txt)
      | None -> ())
  | _ -> ()

(* Walk structure items that execute at module-initialisation time.
   Functor bodies are skipped: their state is per-application. *)
let rec scan_toplevel ctx mutable_fields items =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match mutable_value mutable_fields vb.pvb_expr with
              | Some what ->
                  diag ctx vb.pvb_loc Rule.mutable_toplevel.Rule.id
                    (Printf.sprintf
                       "module-level binding '%s' holds shared mutable state \
                        (%s); move it into a context or guard it explicitly"
                       (binding_name vb) what)
              | None -> ())
            vbs
      | Pstr_type (_, decls) -> List.iter (check_type_decl ctx) decls
      | Pstr_module mb -> scan_module_expr ctx mutable_fields mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.iter (fun mb -> scan_module_expr ctx mutable_fields mb.pmb_expr) mbs
      | Pstr_include { pincl_mod; _ } ->
          scan_module_expr ctx mutable_fields pincl_mod
      | _ -> ())
    items

and scan_module_expr ctx mutable_fields me =
  match me.pmod_desc with
  | Pmod_structure items -> scan_toplevel ctx mutable_fields items
  | Pmod_constraint (me, _) -> scan_module_expr ctx mutable_fields me
  | _ -> ()

let collect_mutable_fields structure =
  let fields = ref [] in
  let type_declaration it td =
    (match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun l ->
            if l.pld_mutable = Asttypes.Mutable then
              fields := l.pld_name.txt :: !fields)
          labels
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it structure;
  !fields

(* ------------------------------------------------------------------ *)
(* Expression-level rules                                              *)

let stdout_printer : Longident.t -> bool = function
  | Lident
      ( "print_endline" | "print_string" | "print_newline" | "print_int"
      | "print_float" | "print_char" | "print_bytes" )
  | Ldot
      ( Lident "Stdlib",
        ( "print_endline" | "print_string" | "print_newline" | "print_int"
        | "print_float" | "print_char" | "print_bytes" ) )
  | Ldot (Lident "Printf", "printf")
  | Ldot (Lident "Format", "printf") ->
      true
  | _ -> false

let check_ident ctx txt loc =
  (match txt with
  | Longident.Ldot (Lident "Stdlib", ("compare" | "=" | "<>")) ->
      diag ctx loc Rule.poly_compare.Rule.id
        "polymorphic Stdlib comparison; use the type's dedicated \
         compare/equal or a rank function"
  | Lident "compare" when not ctx.defines_compare ->
      diag ctx loc Rule.poly_compare.Rule.id
        "bare 'compare' is Stdlib's polymorphic compare here; use the \
         type's dedicated compare or a rank function"
  | _ -> ());
  (match head_module txt with
  | ("Obj" | "Marshal") when ctx.in_lib ->
      diag ctx loc Rule.no_obj_magic.Rule.id
        (Printf.sprintf "'%s' is off-limits in library code"
           (String.concat "." (Longident.flatten txt)))
  | _ -> ());
  if ctx.in_lib && stdout_printer txt then
    diag ctx loc Rule.stdout_in_lib.Rule.id
      "library code must not print to stdout; return the text (Exp.outcome, \
       Table.render) and let the caller emit it";
  match txt with
  | Lident "failwith" | Ldot (Lident "Stdlib", "failwith") ->
      if ctx.in_core then
        diag ctx loc Rule.failwith_in_core.Rule.id
          "core inference must not failwith; return a typed Error or raise a \
           dedicated exception"
  | _ -> ()

let rec catch_all_pattern p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_all_pattern p
  | Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | _ -> false

let check_handler_case ctx case =
  if catch_all_pattern case.pc_lhs && Option.is_none case.pc_guard then
    diag ctx case.pc_lhs.ppat_loc Rule.catch_all_handler.Rule.id
      "'with _ ->' swallows every exception (including Out_of_memory and \
       bugs); match the specific exception or let it propagate"

(* Is an operand of (=) / (<>) syntactically structural — a comparison the
   runtime performs by walking the representation?  Empty strings, [] and
   bare constructors are tolerated: they are cheap, total and idiomatic. *)
let rec structural_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> String.length s > 0
  | Pexp_construct (_, Some _) -> true
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_constraint (e, _) -> structural_operand e
  | _ -> false

let check_expr ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> check_ident ctx txt loc
  | Pexp_try (_, cases) -> List.iter (check_handler_case ctx) cases
  | Pexp_match (_, cases) ->
      List.iter
        (fun case ->
          match case.pc_lhs.ppat_desc with
          | Ppat_exception p when catch_all_pattern p ->
              diag ctx p.ppat_loc Rule.catch_all_handler.Rule.id
                "'exception _' swallows every exception; match the specific \
                 exception or let it propagate"
          | _ -> ())
        cases
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); loc }; _ },
        [ (_, a); (_, b) ] )
    when structural_operand a || structural_operand b ->
      diag ctx loc Rule.poly_compare.Rule.id
        (Printf.sprintf
           "polymorphic (%s) on a structural value; use String.equal or the \
            type's dedicated equal"
           op)
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
    when ctx.in_core ->
      diag ctx e.pexp_loc Rule.failwith_in_core.Rule.id
        "'assert false' in core inference; return a typed Error or raise a \
         dedicated exception"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* list-length-in-compare                                              *)

let list_walk_op : Longident.t -> string option = function
  | Ldot (Lident "List", (("length" | "nth") as f))
  | Ldot (Ldot (Lident "Stdlib", "List"), (("length" | "nth") as f)) ->
      Some ("List." ^ f)
  | _ -> None

(* Sweep a comparator body for list walks.  [what] names the context for
   the message ("compare_foo" or "a function passed to List.sort"). *)
let flag_comparator_body ctx ~what body =
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        match list_walk_op txt with
        | Some name ->
            diag ctx loc Rule.list_length_in_compare.Rule.id
              (Printf.sprintf
                 "%s inside %s runs a list walk on every comparison; \
                  precompute the length next to the list or use \
                  List.compare_lengths"
                 name what)
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body

let sort_application : Longident.t -> string option = function
  | Ldot
      ( (Lident (("List" | "Array" | "ListLabels" | "ArrayLabels") as m)),
        (("sort" | "stable_sort" | "sort_uniq" | "fast_sort") as f) )
  | Ldot
      ( Ldot (Lident "Stdlib", (("List" | "Array") as m)),
        (("sort" | "stable_sort" | "sort_uniq" | "fast_sort") as f) ) ->
      Some (m ^ "." ^ f)
  | _ -> None

let rec syntactic_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) -> syntactic_function e
  | _ -> false

let check_comparator_contexts ctx e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match sort_application txt with
      | Some callee ->
          List.iter
            (fun (_, arg) ->
              if syntactic_function arg then
                flag_comparator_body ctx
                  ~what:(Printf.sprintf "a function passed to %s" callee)
                  arg)
            args
      | None -> ())
  | _ -> ()

let check_comparator_binding ctx vb =
  let name = binding_name vb in
  if String.starts_with ~prefix:"compare" name then
    flag_comparator_body ctx ~what:(Printf.sprintf "'%s'" name) vb.pvb_expr

let deep_iterator ctx =
  let expr it e =
    check_expr ctx e;
    check_comparator_contexts ctx e;
    Ast_iterator.default_iterator.expr it e
  in
  let value_binding it vb =
    check_comparator_binding ctx vb;
    Ast_iterator.default_iterator.value_binding it vb
  in
  { Ast_iterator.default_iterator with expr; value_binding }

let file_defines_compare structure =
  let found = ref false in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var { txt = "compare"; _ } -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.structure it structure;
  !found

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)

let allow_marker = "rpilint: allow"

(* [(* rpilint: allow rule-id ... *)] on line [l] suppresses matching
   findings on [l] (trailing comment) and [l + 1] (comment on its own
   line above the code). *)
let suppressions source =
  let lines = String.split_on_char '\n' source in
  List.concat
    (List.mapi
       (fun i line ->
         let rec find_from pos acc =
           if pos + String.length allow_marker > String.length line then acc
           else if
             String.equal
               (String.sub line pos (String.length allow_marker))
               allow_marker
           then
             let start = pos + String.length allow_marker in
             let rest = String.sub line start (String.length line - start) in
             (* ids never contain '*'; cut at the comment terminator *)
             let rest =
               match String.index_opt rest '*' with
               | Some j -> String.sub rest 0 j
               | None -> rest
             in
             let ids =
               String.split_on_char ' ' rest
               |> List.concat_map (String.split_on_char ',')
               |> List.map String.trim
               |> List.filter (fun id ->
                      String.length id > 0 && Option.is_some (Rule.find id))
             in
             find_from start (List.map (fun id -> (i + 1, id)) ids @ acc)
           else find_from (pos + 1) acc
         in
         find_from 0 [])
       lines)

let suppressed allows (d : Diagnostic.t) =
  List.exists
    (fun (line, id) ->
      String.equal id d.Diagnostic.rule
      && (d.Diagnostic.line = line || d.Diagnostic.line = line + 1))
    allows

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let in_dir prefix file = String.starts_with ~prefix:(prefix ^ "/") file

let suppressed_in ~source d = suppressed (suppressions source) d

let finish ~source found =
  let allows = suppressions source in
  List.filter (fun d -> not (suppressed allows d)) !found
  |> List.sort_uniq Diagnostic.compare

let make_ctx ~file ~defines_compare found =
  {
    file;
    in_lib = in_dir "lib" file;
    in_core = in_dir "lib/core" file;
    defines_compare;
    report = (fun d -> found := d :: !found);
  }

let lint_structure ~file ~source structure =
  let found = ref [] in
  let ctx =
    make_ctx ~file ~defines_compare:(file_defines_compare structure) found
  in
  scan_toplevel ctx (collect_mutable_fields structure) structure;
  let it = deep_iterator ctx in
  it.structure it structure;
  finish ~source found

let rec scan_signature ctx items =
  List.iter
    (fun item ->
      match item.psig_desc with
      | Psig_type (_, decls) -> List.iter (check_type_decl ctx) decls
      | Psig_module { pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } ->
          scan_signature ctx sg
      | _ -> ())
    items

let lint_signature ~file ~source signature =
  let found = ref [] in
  let ctx = make_ctx ~file ~defines_compare:true found in
  scan_signature ctx signature;
  finish ~source found

let parse_error_rule = "parse-error"

let parse_failure ~file (loc : Location.t) what =
  let p = loc.loc_start in
  {
    Diagnostic.file;
    line = (if p.pos_lnum > 0 then p.pos_lnum else 1);
    col = (if p.pos_cnum >= p.pos_bol then p.pos_cnum - p.pos_bol else 0);
    rule = parse_error_rule;
    message = what;
  }

let lint_source ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  if Filename.check_suffix file ".mli" then
    match Parse.interface lexbuf with
    | signature -> lint_signature ~file ~source signature
    | exception Syntaxerr.Error err ->
        [ parse_failure ~file (Syntaxerr.location_of_error err) "syntax error" ]
    | exception Lexer.Error (_, loc) ->
        [ parse_failure ~file loc "lexer error" ]
  else
    match Parse.implementation lexbuf with
    | structure -> lint_structure ~file ~source structure
    | exception Syntaxerr.Error err ->
        [ parse_failure ~file (Syntaxerr.location_of_error err) "syntax error" ]
    | exception Lexer.Error (_, loc) ->
        [ parse_failure ~file loc "lexer error" ]

let lint_path file =
  let source = In_channel.with_open_text file In_channel.input_all in
  if Filename.check_suffix file ".mli" then
    match Pparse.parse_interface ~tool_name:"rpilint" file with
    | signature -> lint_signature ~file ~source signature
    | exception Syntaxerr.Error err ->
        [ parse_failure ~file (Syntaxerr.location_of_error err) "syntax error" ]
    | exception Lexer.Error (_, loc) ->
        [ parse_failure ~file loc "lexer error" ]
  else
    match Pparse.parse_implementation ~tool_name:"rpilint" file with
    | structure -> lint_structure ~file ~source structure
    | exception Syntaxerr.Error err ->
        [ parse_failure ~file (Syntaxerr.location_of_error err) "syntax error" ]
    | exception Lexer.Error (_, loc) ->
        [ parse_failure ~file loc "lexer error" ]

let missing_mli files =
  let interfaces =
    List.filter (fun f -> Filename.check_suffix f ".mli") files
  in
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && in_dir "lib" f
        && not (List.exists (String.equal (f ^ "i")) interfaces)
      then
        Some
          {
            Diagnostic.file = f;
            line = 1;
            col = 0;
            rule = Rule.missing_mli.Rule.id;
            message =
              Printf.sprintf "library module has no interface; add %si" f;
          }
      else None)
    files
  |> List.sort Diagnostic.compare

let apply_baseline baseline diags =
  List.filter
    (fun (d : Diagnostic.t) ->
      not
        (Baseline.mem baseline ~rule:d.Diagnostic.rule ~file:d.Diagnostic.file))
    diags
