(* The rule engine: every rule but missing-mli, over dune's .cmt/.cmti
   artifacts (compiler-libs [Cmt_format]/[Typedtree]).  Identifiers are
   matched by their resolved [Path.t], so a bare [compare] is Stdlib's
   exactly when the compiler bound it there; types, and a whole-library
   call-graph approximation, answer the questions a single file's
   syntax cannot: what runs inside a domain closure, whether an
   expression allocates, where an interned id flows, and which exported
   values no other unit reads.

   Approximations (see DESIGN.md §7c for the full list):
   - The call graph is reference-based: any identifier a binding
     mentions counts as a callee.  Sound for reachability (over-),
     blind through values stored in data structures and through
     [include]-re-exported bindings (under-).
   - A scope that takes a [Mutex.lock]/[Mutex.protect] anywhere is
     treated as guarded for domain-race — lock discipline is not
     verified, only presence.
   - hot-path-alloc checks a function's own body; allocations inside
     its callees are not charged to it.
   - unused-export counts an [open], [include], functor argument or
     [(module M)] as a use of every value of [M]. *)

open Typedtree

module SSet = Set.Make (String)

type interface = {
  ti_file : string;  (* repo-relative .mli path *)
  ti_source : string;  (* its text, for suppression comments *)
  ti_signature : Typedtree.signature;
}

type unit_info = {
  tu_file : string;  (* repo-relative source path, as the compiler saw it *)
  tu_source : string;  (* source text, for suppression comments *)
  tu_modname : string list;  (* normalized module path, e.g. ["Rpi_sim"; "Engine"] *)
  tu_structure : Typedtree.structure;
  tu_interface : interface option;  (* the unit's .mli, when it has one *)
}

let cmt_error_rule = "cmt-error"

(* ------------------------------------------------------------------ *)
(* Path normalization                                                  *)

(* "Rpi_sim__Engine" -> ["Rpi_sim"; "Engine"]; dune's generated alias
   modules ("Rpi_sim__") leave an empty component, dropped here. *)
let split_dunder s =
  let n = String.length s in
  let parts = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      parts := String.sub s !start (!i - !start) :: !parts;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  parts := String.sub s !start (n - !start) :: !parts;
  List.filter (fun c -> String.length c > 0) (List.rev !parts)

let path_components p =
  match Path.flatten p with
  | `Contains_apply -> []
  | `Ok (id, parts) -> List.concat_map split_dunder (Ident.name id :: parts)

let key_of components = String.concat "." components

let rec ends_with ~suffix l =
  let nl = List.length l and ns = List.length suffix in
  if nl < ns then false
  else if nl = ns then List.equal String.equal suffix l
  else match l with [] -> false | _ :: tl -> ends_with ~suffix tl

(* ------------------------------------------------------------------ *)
(* Type shape helpers                                                  *)

let rec head_constr ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> Some (p, args)
  | Types.Tpoly (t, _) -> head_constr t
  | _ -> None

let rec type_mentions ~depth pred ty =
  depth < 8
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      pred (path_components p)
      || List.exists (type_mentions ~depth:(depth + 1) pred) args
  | Types.Ttuple ts -> List.exists (type_mentions ~depth:(depth + 1) pred) ts
  | Types.Tpoly (t, _) -> type_mentions ~depth:(depth + 1) pred t
  | _ -> false

(* [let x = e] binds through [Tpat_var]; [let x : t = e] elaborates to
   an alias pattern — both are the same named top-level binding to us. *)
let binding_ident (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, name) -> Some (id, name.Asttypes.txt)
  | Tpat_alias (_, id, name) -> Some (id, name.Asttypes.txt)
  | _ -> None

let binding_name vb =
  match binding_ident vb with Some (_, name) -> name | None -> "_"

(* A path into the standard library as its components after the
   [Stdlib] head: a bare [compare] resolves through the initial
   [open Stdlib] to [Some ["compare"]], a binding that shadows it to
   [None]. *)
let stdlib_path p =
  match path_components p with "Stdlib" :: rest -> Some rest | _ -> None

(* A bare [compare] and a written-out [Stdlib.compare] resolve to the
   same path; only the written-out identifier spans the "Stdlib."
   prefix. *)
let written_out (loc : Location.t) name =
  loc.Location.loc_end.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_cnum
  >= String.length "Stdlib." + String.length name

let under dir u = String.starts_with ~prefix:(dir ^ "/") u.tu_file

let is_intern_id_type ty =
  type_mentions ~depth:0
    (fun comps -> ends_with ~suffix:[ "Path_intern"; "id" ] comps)
    ty

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let diag_at ~file (loc : Location.t) rule message =
  let p = loc.Location.loc_start in
  {
    Diagnostic.file;
    line = (if p.Lexing.pos_lnum > 0 then p.Lexing.pos_lnum else 1);
    col = (if p.Lexing.pos_cnum >= p.Lexing.pos_bol then p.Lexing.pos_cnum - p.Lexing.pos_bol else 0);
    rule;
    message;
  }

(* ------------------------------------------------------------------ *)
(* Walks                                                               *)

(* Apply [k] to every structure item that runs at module initialisation,
   with the module path it sits under: nested [module X = struct ...
   end]s and [include struct ... end]s are descended into, functor
   bodies (per-application state) are not. *)
let rec iter_items prefix str k =
  let rec nested prefix me =
    match me.mod_desc with
    | Tmod_structure str -> iter_items prefix str k
    | Tmod_constraint (me, _, _, _) -> nested prefix me
    | _ -> ()
  in
  let named mb =
    let name = match mb.mb_name.Asttypes.txt with Some n -> n | None -> "_" in
    nested (prefix @ [ name ]) mb.mb_expr
  in
  List.iter
    (fun item ->
      k prefix item;
      match item.str_desc with
      | Tstr_module mb -> named mb
      | Tstr_recmodule mbs -> List.iter named mbs
      | Tstr_include incl -> nested prefix incl.incl_mod
      | _ -> ())
    str.str_items

let iter_exprs units k =
  List.iter
    (fun u ->
      let expr it e =
        k u e;
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it u.tu_structure)
    units

(* ------------------------------------------------------------------ *)
(* mutable-toplevel                                                    *)

(* Constructors of freshly-allocated mutable containers.  Atomic, Mutex,
   Condition and Semaphore are deliberately absent: they are the
   domain-safe way to share state. *)
let mutable_creator p =
  match stdlib_path p with
  | Some [ "ref" ] -> Some "ref"
  | Some [ "Hashtbl"; "create" ] -> Some "Hashtbl.create"
  | Some [ "Array"; ("make" | "create" | "init" | "make_matrix" | "copy") ] ->
      Some "Array.make"
  | Some [ "Bytes"; ("create" | "make" | "init" | "of_string") ] ->
      Some "Bytes.create"
  | Some [ "Buffer"; "create" ] -> Some "Buffer.create"
  | Some [ "Queue"; "create" ] -> Some "Queue.create"
  | Some [ "Stack"; "create" ] -> Some "Stack.create"
  | _ -> None

(* Does evaluating [e] at module level yield a shared mutable value?  A
   record literal counts when its type declares a [mutable] field. *)
let rec mutable_value e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> mutable_creator p
  | Texp_array _ -> Some "array literal"
  | Texp_record { fields; _ } ->
      if
        Array.exists
          (fun ((l : Types.label_description), _) -> l.Types.lbl_mut = Asttypes.Mutable)
          fields
      then Some "record with mutable field"
      else None
  | Texp_lazy e | Texp_let (_, _, e) -> mutable_value e
  | Texp_tuple es -> List.find_map mutable_value es
  | _ -> None

let check_type_decl ~file report td =
  match td.typ_kind with
  | Ttype_record labels -> (
      match List.find_opt (fun l -> l.ld_mutable = Asttypes.Mutable) labels with
      | Some l ->
          report
            (diag_at ~file l.ld_loc Rule.mutable_toplevel.Rule.id
               (Printf.sprintf
                  "record type '%s' has mutable field '%s'; values shared across \
                   domains race — keep them per-call or behind a mutex"
                  td.typ_name.Asttypes.txt l.ld_name.Asttypes.txt))
      | None -> ())
  | _ -> ()

let rec check_signature ~file report sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_type (_, decls) -> List.iter (check_type_decl ~file report) decls
      | Tsig_module { md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          check_signature ~file report sg
      | _ -> ())
    sg.sig_items

let run_mutable_toplevel units report =
  List.iter
    (fun u ->
      let file = u.tu_file in
      iter_items [] u.tu_structure (fun _ item ->
          match item.str_desc with
          | Tstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match mutable_value vb.vb_expr with
                  | Some what ->
                      report
                        (diag_at ~file vb.vb_loc Rule.mutable_toplevel.Rule.id
                           (Printf.sprintf
                              "module-level binding '%s' holds shared mutable \
                               state (%s); move it into a context or guard it \
                               explicitly"
                              (binding_name vb) what))
                  | None -> ())
                vbs
          | Tstr_type (_, decls) -> List.iter (check_type_decl ~file report) decls
          | _ -> ());
      Option.iter
        (fun i -> check_signature ~file:i.ti_file report i.ti_signature)
        u.tu_interface)
    units

(* ------------------------------------------------------------------ *)
(* poly-compare                                                        *)

(* Is an operand of (=) / (<>) structural — a comparison the runtime
   performs by walking the representation?  Empty strings, [] and
   constant constructors are tolerated: they are cheap, total and
   idiomatic. *)
let structural e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_string (s, _, _)) -> String.length s > 0
  | Texp_construct (_, _, _ :: _) -> true
  | Texp_tuple _ | Texp_record _ | Texp_array _ -> true
  | _ -> false

let run_poly_compare units report =
  iter_exprs units (fun u e ->
      let flag (loc : Location.t) message =
        report (diag_at ~file:u.tu_file loc Rule.poly_compare.Rule.id message)
      in
      match e.exp_desc with
      | Texp_ident (p, lid, _) -> (
          match stdlib_path p with
          | Some [ (("compare" | "=" | "<>") as f) ] when written_out lid.loc f ->
              flag lid.loc
                "polymorphic Stdlib comparison; use the type's dedicated \
                 compare/equal or a rank function"
          | Some [ "compare" ] ->
              flag lid.loc
                "bare 'compare' is Stdlib's polymorphic compare here; use the \
                 type's dedicated compare or a rank function"
          | _ -> ())
      | Texp_apply ({ exp_desc = Texp_ident (p, lid, _); _ }, [ (_, Some a); (_, Some b) ])
        when structural a || structural b -> (
          match stdlib_path p with
          | Some [ (("=" | "<>") as op) ] when not (written_out lid.loc op) ->
              flag lid.loc
                (Printf.sprintf
                   "polymorphic (%s) on a structural value; use String.equal or \
                    the type's dedicated equal"
                   op)
          | _ -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* catch-all-handler                                                   *)

let rec catch_all (p : pattern) =
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_alias (p, _, _) -> catch_all p
  | Tpat_or (a, b, _) -> catch_all a || catch_all b
  | _ -> false

let run_catch_all_handler units report =
  iter_exprs units (fun u e ->
      let flag (p : pattern) message =
        report
          (diag_at ~file:u.tu_file p.pat_loc Rule.catch_all_handler.Rule.id message)
      in
      match e.exp_desc with
      | Texp_try (_, cases) ->
          List.iter
            (fun c ->
              if catch_all c.c_lhs && Option.is_none c.c_guard then
                flag c.c_lhs
                  "'with _ ->' swallows every exception (including \
                   Out_of_memory and bugs); match the specific exception or \
                   let it propagate")
            cases
      | Texp_match (_, cases, _) ->
          List.iter
            (fun c ->
              match c.c_lhs.pat_desc with
              | Tpat_exception p when catch_all p ->
                  flag p
                    "'exception _' swallows every exception; match the \
                     specific exception or let it propagate"
              | _ -> ())
            cases
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* no-obj-magic, stdout-in-lib, failwith-in-core: path-scoped          *)

let run_no_obj_magic units report =
  iter_exprs (List.filter (under "lib") units) (fun u e ->
      match e.exp_desc with
      | Texp_ident (p, lid, _) -> (
          match stdlib_path p with
          | Some (("Obj" | "Marshal") :: _ :: _ as comps) ->
              report
                (diag_at ~file:u.tu_file lid.loc Rule.no_obj_magic.Rule.id
                   (Printf.sprintf "'%s' is off-limits in library code"
                      (String.concat "." comps)))
          | _ -> ())
      | _ -> ())

let run_stdout_in_lib units report =
  iter_exprs (List.filter (under "lib") units) (fun u e ->
      match e.exp_desc with
      | Texp_ident (p, lid, _) -> (
          match stdlib_path p with
          | Some
              [
                ( "print_endline" | "print_string" | "print_newline" | "print_int"
                | "print_float" | "print_char" | "print_bytes" );
              ]
          | Some [ ("Printf" | "Format"); "printf" ] ->
              report
                (diag_at ~file:u.tu_file lid.loc Rule.stdout_in_lib.Rule.id
                   "library code must not print to stdout; return the text \
                    (Exp.outcome, Table.render) and let the caller emit it")
          | _ -> ())
      | _ -> ())

let run_failwith_in_core units report =
  iter_exprs (List.filter (under "lib/core") units) (fun u e ->
      let flag (loc : Location.t) message =
        report (diag_at ~file:u.tu_file loc Rule.failwith_in_core.Rule.id message)
      in
      match e.exp_desc with
      | Texp_ident (p, lid, _) -> (
          match stdlib_path p with
          | Some [ "failwith" ] ->
              flag lid.loc
                "core inference must not failwith; return a typed Error or \
                 raise a dedicated exception"
          | _ -> ())
      | Texp_assert ({ exp_desc = Texp_construct (_, { Types.cstr_name = "false"; _ }, []); _ }, _) ->
          flag e.exp_loc
            "'assert false' in core inference; return a typed Error or raise a \
             dedicated exception"
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* list-length-in-compare                                              *)

let list_walk p =
  match stdlib_path p with
  | Some [ "List"; (("length" | "nth") as f) ] -> Some ("List." ^ f)
  | _ -> None

let sort_callee p =
  match stdlib_path p with
  | Some
      [
        (("List" | "Array" | "ListLabels" | "ArrayLabels") as m);
        (("sort" | "stable_sort" | "sort_uniq" | "fast_sort") as f);
      ] ->
      Some (m ^ "." ^ f)
  | _ -> None

(* Sweep a comparator body for list walks.  [what] names the context for
   the message ("'compare_foo'" or "a function passed to List.sort"). *)
let flag_comparator_body ~file report ~what body =
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, lid, _) -> (
        match list_walk p with
        | Some name ->
            report
              (diag_at ~file lid.loc Rule.list_length_in_compare.Rule.id
                 (Printf.sprintf
                    "%s inside %s runs a list walk on every comparison; \
                     precompute the length next to the list or use \
                     List.compare_lengths"
                    name what))
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body

(* Comparators are bindings named [compare*] and functions written
   inline as a sort's argument. *)
let run_list_length_in_compare units report =
  List.iter
    (fun u ->
      let flag = flag_comparator_body ~file:u.tu_file report in
      let expr it e =
        (match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            match sort_callee p with
            | Some callee ->
                List.iter
                  (function
                    | _, Some ({ exp_desc = Texp_function _; _ } as f) ->
                        flag ~what:("a function passed to " ^ callee) f
                    | _ -> ())
                  args
            | None -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let value_binding it vb =
        let name = binding_name vb in
        if String.starts_with ~prefix:"compare" name then
          flag ~what:(Printf.sprintf "'%s'" name) vb.vb_expr;
        Tast_iterator.default_iterator.value_binding it vb
      in
      let it = { Tast_iterator.default_iterator with expr; value_binding } in
      it.structure it u.tu_structure)
    units

(* ------------------------------------------------------------------ *)
(* domain-race                                                         *)

(* A mutable module-level binding, by its normalized key. *)
type global = { g_file : string; g_what : string }

let compare_access ((la : Location.t), ka) ((lb : Location.t), kb) =
  let pa = la.Location.loc_start and pb = lb.Location.loc_start in
  let c = Int.compare pa.Lexing.pos_lnum pb.Lexing.pos_lnum in
  if c <> 0 then c
  else
    let c = Int.compare pa.Lexing.pos_cnum pb.Lexing.pos_cnum in
    if c <> 0 then c else String.compare ka kb

(* What one lexical region references: used for top-level bindings,
   local bindings (by Ident stamp) and spawn-site arguments.  The fields
   mutate during a single-domain traversal and every scope is private to
   one lint run, so the shared-state concern behind mutable-toplevel
   does not apply. *)
type scope = {
  (* rpilint: allow mutable-toplevel *)
  mutable sc_refs : SSet.t;  (* keys of referenced top-level bindings *)
  mutable sc_locals : (int * string) list;  (* keys of referenced local bindings *)
  mutable sc_accesses : (Location.t * string) list;  (* mutable-global hits *)
  mutable sc_guarded : bool;  (* takes a Mutex somewhere in the region *)
}

let fresh_scope () =
  { sc_refs = SSet.empty; sc_locals = []; sc_accesses = []; sc_guarded = false }

type def = { d_file : string; d_scope : scope }

type spawn = {
  sp_file : string;
  sp_loc : Location.t;
  sp_callee : string;  (* "Pool.run" / "Domain.spawn", for the message *)
  sp_scope : scope;  (* the argument expressions *)
  sp_locals : (int * string, scope) Hashtbl.t;  (* the enclosing unit's local scopes *)
}

let spawn_callee comps =
  if ends_with ~suffix:[ "Pool"; "run" ] comps then Some "Pool.run"
  else if ends_with ~suffix:[ "Domain"; "spawn" ] comps then Some "Domain.spawn"
  else None

let mutex_take comps =
  ends_with ~suffix:[ "Mutex"; "lock" ] comps
  || ends_with ~suffix:[ "Mutex"; "try_lock" ] comps
  || ends_with ~suffix:[ "Mutex"; "protect" ] comps

(* Is a module-level binding of this type shared mutable state?  Keyed on
   the head type constructor; [mutable_records] holds the keys (and
   same-unit stamps) of record types declared with a [mutable] field.
   Atomic/Mutex/Condition/Semaphore values never match. *)
let mutable_type ~record_keys ~record_stamps ty =
  match head_constr ty with
  | None -> None
  | Some (p, _) -> (
      let comps = path_components p in
      let tail2 m = ends_with ~suffix:[ m; "t" ] comps in
      if ends_with ~suffix:[ "ref" ] comps then Some "ref cell"
      else if ends_with ~suffix:[ "array" ] comps then Some "array"
      else if ends_with ~suffix:[ "bytes" ] comps then Some "bytes"
      else if tail2 "Hashtbl" then Some "Hashtbl.t"
      else if tail2 "Buffer" then Some "Buffer.t"
      else if tail2 "Queue" then Some "Queue.t"
      else if tail2 "Stack" then Some "Stack.t"
      else if SSet.mem (key_of comps) record_keys then Some "mutable record"
      else
        match p with
        | Path.Pident id when Hashtbl.mem record_stamps (Ident.hash id, Ident.name id) ->
            Some "mutable record"
        | _ -> None)

(* First pass over a unit: top-level value bindings, nested modules'
   included. *)
let structure_bindings prefix str k =
  iter_items prefix str (fun prefix item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              Option.iter (fun (id, name) -> k (prefix, id, name, vb)) (binding_ident vb))
            vbs
      | _ -> ())

(* Record types declared with a [mutable] field, by key and same-unit
   stamp. *)
let collect_mutable_record_types units =
  let keys = ref SSet.empty in
  let stamps = Hashtbl.create 64 in
  List.iter
    (fun u ->
      iter_items u.tu_modname u.tu_structure (fun prefix item ->
          match item.str_desc with
          | Tstr_type (_, decls) ->
              List.iter
                (fun td ->
                  match td.typ_kind with
                  | Ttype_record labels
                    when List.exists (fun l -> l.ld_mutable = Asttypes.Mutable) labels ->
                      keys := SSet.add (key_of (prefix @ [ td.typ_name.Asttypes.txt ])) !keys;
                      Hashtbl.replace stamps (Ident.hash td.typ_id, Ident.name td.typ_id) ()
                  | _ -> ())
                decls
          | _ -> ()))
    units;
  (!keys, stamps)

(* Second pass over one top-level binding: populate its scope, the local
   scopes of nested bindings, and any spawn sites it contains.  [active]
   is the stack of scopes the walker is currently inside — every
   reference event updates all of them. *)
let walk_binding ~unit_file ~globals ~top_stamps ~locals ~spawns scope0 expr0 =
  let active = ref [ scope0 ] in
  let on_ref path loc =
    let comps = path_components path in
    let record key =
      List.iter
        (fun sc ->
          sc.sc_refs <- SSet.add key sc.sc_refs;
          if Hashtbl.mem globals key then
            sc.sc_accesses <- (loc, key) :: sc.sc_accesses)
        !active
    in
    (match path with
    | Path.Pident id -> (
        let stamp_key = (Ident.hash id, Ident.name id) in
        match Hashtbl.find_opt top_stamps stamp_key with
        | Some key -> record key
        | None ->
            if Hashtbl.mem locals stamp_key then
              List.iter
                (fun sc -> sc.sc_locals <- stamp_key :: sc.sc_locals)
                !active
            else record (key_of comps))
    | _ -> record (key_of comps));
    if mutex_take comps then List.iter (fun sc -> sc.sc_guarded <- true) !active
  in
  let with_scope sc f =
    active := sc :: !active;
    f ();
    active := List.tl !active
  in
  let iter =
    let expr it e =
      (match e.exp_desc with
      | Texp_ident (p, _, _) -> on_ref p e.exp_loc
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
          match spawn_callee (path_components p) with
          | Some callee ->
              let sp_scope = fresh_scope () in
              List.iter
                (fun (_, arg) ->
                  match arg with
                  | Some a ->
                      with_scope sp_scope (fun () ->
                          Tast_iterator.default_iterator.expr it a)
                  | None -> ())
                args;
              spawns :=
                {
                  sp_file = unit_file;
                  sp_loc = e.exp_loc;
                  sp_callee = callee;
                  sp_scope;
                  sp_locals = locals;
                }
                :: !spawns
          | None -> ())
      | _ -> ());
      match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
        when Option.is_some (spawn_callee (path_components p)) ->
          (* arguments already walked above, inside the spawn scope *)
          ()
      | _ -> Tast_iterator.default_iterator.expr it e
    in
    let value_binding it vb =
      (match binding_ident vb with
      | Some (id, _) ->
          let sc = fresh_scope () in
          Hashtbl.replace locals (Ident.hash id, Ident.name id) sc;
          with_scope sc (fun () -> Tast_iterator.default_iterator.expr it vb.vb_expr)
      | None -> Tast_iterator.default_iterator.value_binding it vb);
      ()
    in
    { Tast_iterator.default_iterator with expr; value_binding }
  in
  iter.expr iter expr0

(* Expand a scope through the unit's local bindings (fixpoint over
   referenced stamps), accumulating the transitive refs and the accesses
   of every unguarded region. *)
let expand_scope ~locals scope =
  let refs = ref scope.sc_refs in
  let accesses = ref (if scope.sc_guarded then [] else scope.sc_accesses) in
  let seen = Hashtbl.create 16 in
  let rec visit_local key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      match Hashtbl.find_opt locals key with
      | None -> ()
      | Some sc ->
          refs := SSet.union sc.sc_refs !refs;
          if not sc.sc_guarded then accesses := sc.sc_accesses @ !accesses;
          List.iter visit_local sc.sc_locals
    end
  in
  List.iter visit_local scope.sc_locals;
  (!refs, !accesses)

let run_domain_race units report =
  let record_keys, record_stamps = collect_mutable_record_types units in
  let globals : (string, global) Hashtbl.t = Hashtbl.create 64 in
  let defs : (string, def) Hashtbl.t = Hashtbl.create 512 in
  let pending = ref [] in
  (* Pass 1: register every top-level binding and mutable global. *)
  List.iter
    (fun u ->
      let top_stamps = Hashtbl.create 64 in
      structure_bindings u.tu_modname u.tu_structure (fun (prefix, id, name, vb) ->
          let key = key_of (prefix @ [ name ]) in
          Hashtbl.replace top_stamps (Ident.hash id, Ident.name id) key;
          (match
             mutable_type ~record_keys ~record_stamps vb.vb_expr.exp_type
           with
          | Some what ->
              Hashtbl.replace globals key { g_file = u.tu_file; g_what = what }
          | None -> ());
          pending := (u, top_stamps, key, vb) :: !pending))
    units;
  (* Pass 2: walk bodies now that the global table is complete. *)
  let spawns = ref [] in
  List.iter
    (fun (u, top_stamps, key, vb) ->
      let locals = Hashtbl.create 32 in
      let scope = fresh_scope () in
      walk_binding ~unit_file:u.tu_file ~globals ~top_stamps ~locals ~spawns
        scope vb.vb_expr;
      Hashtbl.replace defs key { d_file = u.tu_file; d_scope = scope })
    (List.rev !pending);
  (* Pass 3: from each spawn site, close over the call graph and report
     every unguarded access to a mutable global.  Spawn sites are
     processed in (file, line) order and the first reporter of an access
     wins, so the output is deterministic. *)
  let reported = Hashtbl.create 16 in
  let spawn_sorted =
    List.sort
      (fun a b ->
        let c = String.compare a.sp_file b.sp_file in
        if c <> 0 then c
        else
          Int.compare a.sp_loc.Location.loc_start.Lexing.pos_lnum
            b.sp_loc.Location.loc_start.Lexing.pos_lnum)
      !spawns
  in
  List.iter
    (fun sp ->
      let refs0, accesses0 = expand_scope ~locals:sp.sp_locals sp.sp_scope in
      let refs0 =
        if sp.sp_scope.sc_guarded then refs0
        else SSet.union sp.sp_scope.sc_refs refs0
      in
      let visited = ref SSet.empty in
      let acc = ref accesses0 in
      let rec bfs key =
        if not (SSet.mem key !visited) then begin
          visited := SSet.add key !visited;
          match Hashtbl.find_opt defs key with
          | None -> ()
          | Some d ->
              if not d.d_scope.sc_guarded then
                acc := d.d_scope.sc_accesses @ !acc;
              SSet.iter bfs d.d_scope.sc_refs
        end
      in
      SSet.iter bfs refs0;
      let line = sp.sp_loc.Location.loc_start.Lexing.pos_lnum in
      List.iter
        (fun ((loc : Location.t), gkey) ->
          let g = Hashtbl.find globals gkey in
          let dkey =
            ( g.g_file,
              loc.Location.loc_start.Lexing.pos_lnum,
              loc.Location.loc_start.Lexing.pos_cnum
              - loc.Location.loc_start.Lexing.pos_bol )
          in
          if not (Hashtbl.mem reported dkey) then begin
            Hashtbl.replace reported dkey ();
            report
              (diag_at ~file:g.g_file loc Rule.domain_race.Rule.id
                 (Printf.sprintf
                    "module-level mutable state '%s' (%s) is read or written \
                     on a path reachable from the closure passed to %s at \
                     %s:%d; make it Atomic, guard every access with a mutex, \
                     or give each domain its own copy"
                    gkey g.g_what sp.sp_callee sp.sp_file line))
          end)
        (List.sort_uniq compare_access !acc))
    spawn_sorted

(* ------------------------------------------------------------------ *)
(* hot-path-alloc                                                      *)

let hot_attr = "rpilint.hot"

let has_hot_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.Parsetree.attr_name.Asttypes.txt hot_attr)
    attrs

let printf_module comps =
  match comps with
  | ("Printf" | "Format" | "Scanf") :: _ :: _ -> true
  | "Stdlib" :: ("Printf" | "Format" | "Scanf") :: _ :: _ -> true
  | _ -> false

(* Known allocating stdlib entry points, matched on the path tail.  Not
   exhaustive — the structural checks below catch the common literals —
   but these are the calls whose allocation hides behind a name. *)
let known_allocator comps =
  let tail2 =
    match List.rev comps with
    | f :: m :: _ -> Some (m, f)
    | _ -> None
  in
  match List.rev comps with
  | [ "ref" ] | [ "ref"; "Stdlib" ] -> Some "ref"
  | [ "string_of_int" ] | [ "string_of_int"; "Stdlib" ] -> Some "string_of_int"
  | _ -> (
      match tail2 with
      | Some
          ( "Array",
            (( "make" | "create" | "init" | "make_matrix" | "copy" | "append"
             | "sub" | "concat" | "of_list" | "to_list" | "of_seq" | "to_seq"
             | "map" | "mapi" | "split" | "combine" ) as f) ) ->
          Some ("Array." ^ f)
      | Some
          ( "List",
            (( "map" | "mapi" | "rev_map" | "init" | "append" | "rev"
             | "rev_append" | "concat" | "concat_map" | "flatten" | "filter"
             | "filter_map" | "partition" | "split" | "combine" | "merge"
             | "sort" | "stable_sort" | "sort_uniq" | "fast_sort" | "of_seq"
             | "to_seq" | "cons" ) as f) ) ->
          Some ("List." ^ f)
      | Some
          ( "String",
            (( "make" | "init" | "sub" | "concat" | "cat" | "map" | "mapi"
             | "split_on_char" | "of_seq" | "to_seq" | "to_bytes" | "of_bytes"
             | "uppercase_ascii" | "lowercase_ascii" ) as f) ) ->
          Some ("String." ^ f)
      | Some
          ( "Bytes",
            (( "create" | "make" | "init" | "copy" | "of_string" | "to_string"
             | "sub" | "extend" | "cat" | "concat" ) as f) ) ->
          Some ("Bytes." ^ f)
      | Some ("Buffer", (("create" | "contents" | "to_bytes" | "sub") as f)) ->
          Some ("Buffer." ^ f)
      | Some ("Int", "to_string") -> Some "Int.to_string"
      | Some ("Hashtbl", (("create" | "copy" | "fold" | "to_seq" | "of_seq") as f))
        ->
          Some ("Hashtbl." ^ f)
      | Some (("Queue" | "Stack"), ("create" | "copy" | "to_seq")) ->
          Some "Queue/Stack"
      | Some ("Option", (("map" | "bind" | "some" | "join") as f)) ->
          Some ("Option." ^ f)
      | Some ("Result", (("map" | "bind" | "map_error") as f)) ->
          Some ("Result." ^ f)
      | Some ("Seq", f) -> Some ("Seq." ^ f)
      | Some (_, ("^" | "@" | "^^")) -> Some "string/list append"
      | _ -> (
          match comps with
          | [ ("^" | "@" | "^^") ] -> Some "string/list append"
          | _ -> None))

let result_type_alloc ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> Some "partial application (allocates a closure)"
  | Types.Tconstr (p, _, _)
    when ends_with ~suffix:[ "float" ] (path_components p) ->
      Some "boxed float result"
  | _ -> None

let check_hot_body ~file ~name body report =
  let flag loc what =
    report
      (diag_at ~file loc Rule.hot_path_alloc.Rule.id
         (Printf.sprintf
            "[@rpilint.hot] function '%s' allocates: %s — hot-path code must \
             not allocate; hoist it out of the loop or justify with \
             (* rpilint: allow hot-path-alloc *)"
            name what))
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_function _ -> flag e.exp_loc "a closure"
    | Texp_tuple _ -> flag e.exp_loc "a tuple"
    | Texp_record _ -> flag e.exp_loc "a record"
    | Texp_array _ -> flag e.exp_loc "an array literal"
    | Texp_construct (_, cd, args) when args <> [] ->
        flag e.exp_loc
          (Printf.sprintf "constructor '%s' (boxed)" cd.Types.cstr_name)
    | Texp_variant (_, Some _) -> flag e.exp_loc "a polymorphic variant"
    | Texp_lazy _ -> flag e.exp_loc "a lazy thunk"
    | Texp_pack _ -> flag e.exp_loc "a first-class module"
    | Texp_object _ -> flag e.exp_loc "an object"
    | Texp_letop _ -> flag e.exp_loc "a binding operator"
    | Texp_apply (f, _) -> (
        (match f.exp_desc with
        | Texp_ident (p, _, _) ->
            let comps = path_components p in
            if printf_module comps then
              flag e.exp_loc
                "a Printf/Format call (the format interpreter allocates)"
            else (
              match known_allocator comps with
              | Some what -> flag e.exp_loc (what ^ " (allocates its result)")
              | None -> ())
        | _ -> ());
        match result_type_alloc e.exp_type with
        | Some what -> flag e.exp_loc what
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  (* The outer fun-chain (and any `function` match spine) is the hot
     function itself, not an allocation at call time: descend into case
     bodies and guards, then check everything below. *)
  let rec spine e =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            Option.iter (fun g -> iter.expr iter g) c.c_guard;
            spine c.c_rhs)
          cases
    | _ -> iter.expr iter e
  in
  spine body

let run_hot_path_alloc units report =
  List.iter
    (fun u ->
      let vb_hook it vb =
        if has_hot_attr vb.vb_attributes then
          check_hot_body ~file:u.tu_file ~name:(binding_name vb) vb.vb_expr report;
        Tast_iterator.default_iterator.value_binding it vb
      in
      let iter = { Tast_iterator.default_iterator with value_binding = vb_hook } in
      iter.structure iter u.tu_structure)
    units

(* ------------------------------------------------------------------ *)
(* intern-id-escape                                                    *)

let serializer_modules = [ "Rpi_json"; "Render"; "Protocol"; "Feed"; "Table_dump"; "Show_ip_bgp"; "Rpsl" ]

let sink_components comps =
  (* Any *module* component (everything but the final value name) that
     names a serializer. *)
  let rec modules = function
    | [] | [ _ ] -> []
    | m :: rest -> m :: modules rest
  in
  List.find_opt (fun c -> List.mem c serializer_modules) (modules comps)

let type_sink ty =
  match head_constr ty with
  | Some (p, _) -> (
      let comps = path_components p in
      match sink_components (comps @ [ "" ]) with
      | Some m -> Some m
      | None -> None)
  | None -> None

let report_id_args ~file ~sink args report =
  let expr it e =
    (if is_intern_id_type e.exp_type then
       report
         (diag_at ~file e.exp_loc Rule.intern_id_escape.Rule.id
            (Printf.sprintf
               "interned Path_intern.id value escapes into serializer '%s'; \
                ids are indices into a per-run table and must never be \
                serialized — convert with Path_intern.to_list (or report a \
                derived value) first"
               sink)));
    Tast_iterator.default_iterator.expr it e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  List.iter
    (fun arg ->
      match arg with Some a -> iter.expr iter a | None -> ())
    args

let run_intern_id_escape units report =
  List.iter
    (fun u ->
      let in_sink_unit =
        List.exists (fun c -> List.mem c serializer_modules) u.tu_modname
      in
      let expr it e =
        (match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            match sink_components (path_components p) with
            | Some sink ->
                report_id_args ~file:u.tu_file ~sink
                  (List.map snd args)
                  report
            | None -> ())
        | Texp_construct (_, cd, args) -> (
            match type_sink cd.Types.cstr_res with
            | Some sink when args <> [] ->
                report_id_args ~file:u.tu_file ~sink
                  (List.map Option.some args)
                  report
            | _ -> ())
        | _ ->
            if in_sink_unit && is_intern_id_type e.exp_type then
              report
                (diag_at ~file:u.tu_file e.exp_loc Rule.intern_id_escape.Rule.id
                   (Printf.sprintf
                      "interned Path_intern.id value inside serializer module \
                       '%s'; ids must be converted before serialization code \
                       ever sees them"
                      (key_of u.tu_modname))));
        Tast_iterator.default_iterator.expr it e
      in
      let iter = { Tast_iterator.default_iterator with expr } in
      iter.structure iter u.tu_structure)
    units

(* ------------------------------------------------------------------ *)
(* blocking-in-eventloop                                                *)

(* Unix primitives that park the calling thread until the kernel is
   ready.  [Unix.select] is deliberately absent — it is the loop's one
   sanctioned parking point — as are [close]/[set_nonblock]/socket
   setup, which do not wait on a peer. *)
let blocking_callee comps =
  match List.rev comps with
  | f :: "Unix" :: _ -> begin
      match f with
      | "read" | "write" | "write_substring" | "single_write" | "connect"
      | "accept" | "sleep" | "sleepf" | "recv" | "recvfrom" | "send"
      | "send_substring" | "sendto" | "gethostbyname" | "gethostbyaddr"
      | "getaddrinfo" | "getnameinfo" | "system" | "wait" | "waitpid" ->
          Some ("Unix." ^ f)
      | _ -> None
    end
  | _ -> None

let eventloop_unit modname =
  List.exists
    (fun c -> String.equal c "Eventloop" || String.equal c "Conn")
    modname

(* Roots are every top-level binding in an Eventloop/Conn unit; the
   reference-based call graph (same approximation as domain-race)
   carries reachability across modules, so a helper elsewhere that
   sleeps or does blocking I/O is charged when loop code can reach it. *)
let run_blocking_in_eventloop units report =
  let defs : (string, SSet.t * (string * Location.t * string) list) Hashtbl.t =
    Hashtbl.create 512
  in
  let roots = ref [] in
  List.iter
    (fun u ->
      let top_stamps = Hashtbl.create 64 in
      structure_bindings u.tu_modname u.tu_structure (fun (prefix, id, name, _) ->
          Hashtbl.replace top_stamps
            (Ident.hash id, Ident.name id)
            (key_of (prefix @ [ name ])));
      let is_root = eventloop_unit u.tu_modname in
      structure_bindings u.tu_modname u.tu_structure (fun (prefix, _, name, vb) ->
          let key = key_of (prefix @ [ name ]) in
          let refs = ref SSet.empty in
          let hits = ref [] in
          let expr it e =
            (match e.exp_desc with
            | Texp_ident (p, _, _) ->
                let comps = path_components p in
                let ref_key =
                  match p with
                  | Path.Pident id -> (
                      match
                        Hashtbl.find_opt top_stamps (Ident.hash id, Ident.name id)
                      with
                      | Some k -> k
                      | None -> key_of comps)
                  | _ -> key_of comps
                in
                refs := SSet.add ref_key !refs;
                (match blocking_callee comps with
                | Some callee -> hits := (u.tu_file, e.exp_loc, callee) :: !hits
                | None -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr it e
          in
          let iter = { Tast_iterator.default_iterator with expr } in
          iter.expr iter vb.vb_expr;
          Hashtbl.replace defs key (!refs, List.rev !hits);
          if is_root then roots := key :: !roots))
    units;
  let reported = Hashtbl.create 16 in
  List.iter
    (fun root ->
      let visited = ref SSet.empty in
      let rec bfs key =
        if not (SSet.mem key !visited) then begin
          visited := SSet.add key !visited;
          match Hashtbl.find_opt defs key with
          | None -> ()
          | Some (refs, hits) ->
              List.iter
                (fun (file, (loc : Location.t), callee) ->
                  let p = loc.Location.loc_start in
                  let dkey = (file, p.Lexing.pos_lnum, p.Lexing.pos_cnum) in
                  if not (Hashtbl.mem reported dkey) then begin
                    Hashtbl.replace reported dkey ();
                    report
                      (diag_at ~file loc Rule.blocking_in_eventloop.Rule.id
                         (Printf.sprintf
                            "blocking primitive '%s' is reachable from \
                             event-loop code (via '%s'); a blocked syscall \
                             parks the whole domain and stalls every \
                             connection it owns — use the non-blocking Conn \
                             wrappers, or justify a non-blocking fd with \
                             (* rpilint: allow blocking-in-eventloop *)"
                            callee root))
                  end)
                hits;
              SSet.iter bfs refs
        end
      in
      bfs root)
    (List.sort String.compare !roots)

(* ------------------------------------------------------------------ *)
(* unused-export                                                       *)

(* The module a [module X = M] (optionally constrained) binds [X] to. *)
let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* What one unit references, as dotted keys: single values ([refs]) and
   whole modules ([wholes]: the targets of [open], [include], functor
   arguments and packs).  Module idents the unit binds by [module X = M]
   or [let module X = M in] resolve to what they alias, those bound to a
   structure to their key under the unit; any other local module keeps
   its bare name.  [aliases] collects the unit's structure-level aliases
   under their global key, so a reference through [U.X.v] from another
   unit can be rewritten to the aliased module. *)
let unit_references u ~aliases =
  let locals = Hashtbl.create 32 in
  let refs = ref SSet.empty and wholes = ref SSet.empty in
  let rec resolve = function
    | Path.Pident id -> (
        match Hashtbl.find_opt locals (Ident.hash id, Ident.name id) with
        | Some comps -> comps
        | None -> split_dunder (Ident.name id))
    | Path.Pdot (p, s) -> resolve p @ [ s ]
    | Path.Papply _ | Path.Pextra_ty _ -> []
  in
  let add set p =
    match resolve p with [] -> () | comps -> set := SSet.add (key_of comps) !set
  in
  let whole me = Option.iter (add wholes) (alias_target me) in
  let prefix = ref u.tu_modname in
  let bind ~global id me =
    let name = Ident.name id in
    match alias_target me with
    | Some p ->
        let target = resolve p in
        Hashtbl.replace locals (Ident.hash id, name) target;
        if global then Hashtbl.replace aliases (key_of (!prefix @ [ name ])) target
    | None -> Hashtbl.replace locals (Ident.hash id, name) (!prefix @ [ name ])
  in
  let module_binding it mb =
    match mb.mb_id with
    | None -> Tast_iterator.default_iterator.module_binding it mb
    | Some id ->
        bind ~global:true id mb.mb_expr;
        let outer = !prefix in
        prefix := outer @ [ Ident.name id ];
        Tast_iterator.default_iterator.module_binding it mb;
        prefix := outer
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> add refs p
    | Texp_letmodule (Some id, _, _, me, _) -> bind ~global:false id me
    | Texp_pack me -> whole me
    | Texp_open (od, _) -> whole od.open_expr
    | Texp_letop { let_; ands; _ } ->
        List.iter (fun bop -> add refs bop.bop_op_path) (let_ :: ands)
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let structure_item it item =
    (match item.str_desc with
    | Tstr_open od -> whole od.open_expr
    | Tstr_include incl -> whole incl.incl_mod
    | _ -> ());
    Tast_iterator.default_iterator.structure_item it item
  in
  let module_expr it me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    Tast_iterator.default_iterator.module_expr it me
  in
  let iter =
    { Tast_iterator.default_iterator with module_binding; expr; structure_item; module_expr }
  in
  iter.structure iter u.tu_structure;
  (!refs, !wholes)

(* Rewrite the first aliased prefix of [comps] to its target, until no
   prefix is an alias (bounded, so an alias cycle cannot loop). *)
let rec unalias aliases ~fuel comps =
  let rec go pre = function
    | [] -> comps
    | c :: rest -> (
        let pre = pre @ [ c ] in
        match Hashtbl.find_opt aliases (key_of pre) with
        | Some target when fuel > 0 && not (List.equal String.equal target pre) ->
            unalias aliases ~fuel:(fuel - 1) (target @ rest)
        | _ -> go pre rest)
  in
  go [] comps

(* Every [val] of an interface, nested [module X : sig ... end]s
   included, with its key and location.  Values an [include] or a named
   module type brings in have no [val] line here and are not listed. *)
let rec interface_values prefix sg k =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> k (prefix @ [ vd.val_name.Asttypes.txt ]) vd.val_loc
      | Tsig_module md -> module_values prefix md k
      | Tsig_recmodule mds -> List.iter (fun md -> module_values prefix md k) mds
      | _ -> ())
    sg.sig_items

and module_values prefix md k =
  match (md.md_type.mty_desc, md.md_name.Asttypes.txt) with
  | Tmty_signature sg, Some name -> interface_values (prefix @ [ name ]) sg k
  | _ -> ()

let run_unused_export ~callers units report =
  let aliases = Hashtbl.create 256 in
  let collected =
    List.map (fun u -> (u.tu_file, unit_references u ~aliases)) (units @ callers)
  in
  let resolved key = key_of (unalias aliases ~fuel:8 (String.split_on_char '.' key)) in
  (* key -> the files that reference it; and the whole-module uses *)
  let readers = Hashtbl.create 4096 in
  let whole_uses = ref [] in
  List.iter
    (fun (file, (refs, wholes)) ->
      SSet.iter (fun k -> Hashtbl.add readers (resolved k) file) refs;
      SSet.iter (fun k -> whole_uses := (resolved k ^ ".", file) :: !whole_uses) wholes)
    collected;
  List.iter
    (fun u ->
      match u.tu_interface with
      | Some intf when String.starts_with ~prefix:"lib/" u.tu_file ->
          interface_values u.tu_modname intf.ti_signature (fun comps loc ->
              let key = key_of comps in
              let other file = not (String.equal file u.tu_file) in
              let read =
                List.exists other (Hashtbl.find_all readers key)
                || List.exists
                     (fun (prefix, file) -> other file && String.starts_with ~prefix key)
                     !whole_uses
              in
              if not read then
                report
                  (diag_at ~file:intf.ti_file loc Rule.unused_export.Rule.id
                     (Printf.sprintf
                        "'%s' is exported but no other unit under %s \
                         references it; drop it from the interface, and \
                         delete it if %s no longer uses it"
                        key
                        (String.concat ", " Rule.caller_roots)
                        u.tu_file)))
      | _ -> ())
    units

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)

let allow_marker = "rpilint: allow"

(* [(* rpilint: allow rule-id ... *)] on line [l], as [(l, id)] pairs:
   it suppresses matching findings on [l] (trailing comment) and [l + 1]
   (comment on its own line above the code). *)
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

let dedup_diags diags =
  (* One site can be reported twice with different messages — an id
     under nested sink applications, a list walk inside nested
     comparators; keep the first in sort order so the output is
     byte-stable. *)
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (d : Diagnostic.t) ->
      let key = (d.Diagnostic.file, d.Diagnostic.line, d.Diagnostic.col, d.Diagnostic.rule) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    (List.sort Diagnostic.compare diags)

let lint_units ?rules ~callers units =
  let rules =
    match rules with
    | Some rs -> rs
    | None -> List.map (fun r -> r.Rule.id) Rule.all
  in
  let want id = List.exists (String.equal id) rules in
  let found = ref [] in
  let report d = found := d :: !found in
  if want Rule.mutable_toplevel.Rule.id then run_mutable_toplevel units report;
  if want Rule.poly_compare.Rule.id then run_poly_compare units report;
  if want Rule.catch_all_handler.Rule.id then run_catch_all_handler units report;
  if want Rule.no_obj_magic.Rule.id then run_no_obj_magic units report;
  if want Rule.stdout_in_lib.Rule.id then run_stdout_in_lib units report;
  if want Rule.failwith_in_core.Rule.id then run_failwith_in_core units report;
  if want Rule.list_length_in_compare.Rule.id then
    run_list_length_in_compare units report;
  if want Rule.domain_race.Rule.id then run_domain_race units report;
  if want Rule.hot_path_alloc.Rule.id then run_hot_path_alloc units report;
  if want Rule.intern_id_escape.Rule.id then run_intern_id_escape units report;
  if want Rule.blocking_in_eventloop.Rule.id then
    run_blocking_in_eventloop units report;
  if want Rule.unused_export.Rule.id then run_unused_export ~callers units report;
  let allows =
    List.concat_map
      (fun u ->
        (u.tu_file, lazy (suppressions u.tu_source))
        :: Option.fold ~none:[]
             ~some:(fun i -> [ (i.ti_file, lazy (suppressions i.ti_source)) ])
             u.tu_interface)
      units
  in
  dedup_diags !found
  |> List.filter (fun (d : Diagnostic.t) ->
         match List.assoc_opt d.Diagnostic.file allows with
         | Some a -> not (suppressed (Lazy.force a) d)
         | None -> true)

let read_source candidates =
  List.find_map
    (fun path ->
      if Sys.file_exists path && not (Sys.is_directory path) then
        match In_channel.with_open_text path In_channel.input_all with
        | source -> Some source
        | exception Sys_error _ -> None
      else None)
    candidates

(* The source a cmt was compiled from, tried relative to the cwd, then
   to the cmt's recorded build dir. *)
let cmt_source (cmt : Cmt_format.cmt_infos) src =
  read_source [ src; Filename.concat cmt.Cmt_format.cmt_builddir src ]

(* The .cmti dune writes beside a unit's .cmt, when the unit has an .mli. *)
let load_interface cmt_path =
  let path = Filename.remove_extension cmt_path ^ ".cmti" in
  if not (Sys.file_exists path) then None
  else
    match Cmt_format.read_cmt path with
    | exception (Sys_error _ | Failure _ | End_of_file | Cmi_format.Error _) -> None
    | cmt -> (
        match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
        | Cmt_format.Interface sg, Some src -> (
            match cmt_source cmt src with
            | Some source ->
                Some { ti_file = src; ti_source = source; ti_signature = sg }
            | None -> None)
        | _ -> None)

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception (Sys_error msg | Failure msg) -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated cmt file")
  | exception Cmi_format.Error _ -> Error (path ^ ": not a cmt file (cmi or version mismatch)")
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src
        when Filename.check_suffix src ".ml" -> (
          match cmt_source cmt src with
          | Some source ->
              Ok
                (Some
                   {
                     tu_file = src;
                     tu_source = source;
                     tu_modname = split_dunder cmt.Cmt_format.cmt_modname;
                     tu_structure = str;
                     tu_interface = load_interface path;
                   })
          | None -> Ok None)
      | _ -> Ok None)
