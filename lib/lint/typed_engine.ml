(* The typed rule engine: interprocedural rules over dune's .cmt
   artifacts (compiler-libs [Cmt_format]/[Typedtree]).  Where the
   Parsetree engine sees one file's syntax, this one sees types,
   resolved [Path.t]s and a whole-library call-graph approximation, so
   it can answer questions the syntactic rules cannot: what runs inside
   a domain closure, whether an expression allocates, and where an
   interned id flows.

   Approximations (see DESIGN.md §7c for the full list):
   - The call graph is reference-based: any identifier a binding
     mentions counts as a callee.  Sound for reachability (over-),
     blind through values stored in data structures and through
     [include]-re-exported bindings (under-).
   - A scope that takes a [Mutex.lock]/[Mutex.protect] anywhere is
     treated as guarded for domain-race — lock discipline is not
     verified, only presence.
   - hot-path-alloc checks a function's own body; allocations inside
     its callees are not charged to it. *)

open Typedtree

module SSet = Set.Make (String)

type unit_info = {
  tu_file : string;  (* repo-relative source path, as the compiler saw it *)
  tu_source : string;  (* source text, for suppression comments *)
  tu_modname : string list;  (* normalized module path, e.g. ["Rpi_sim"; "Engine"] *)
  tu_structure : Typedtree.structure;
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

(* First pass over a unit: top-level value bindings (with nesting through
   sub-structures), record types with mutable fields. *)
let rec structure_bindings prefix str k =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_ident vb with
              | Some (id, name) -> k (prefix, id, name, vb)
              | None -> ())
            vbs
      | Tstr_module mb -> module_bindings prefix mb k
      | Tstr_recmodule mbs -> List.iter (fun mb -> module_bindings prefix mb k) mbs
      | _ -> ())
    str.str_items

and module_bindings prefix mb k =
  let name =
    match mb.mb_name.Asttypes.txt with Some n -> n | None -> "_"
  in
  let rec expr me =
    match me.mod_desc with
    | Tmod_structure str -> structure_bindings (prefix @ [ name ]) str k
    | Tmod_constraint (me, _, _, _) -> expr me
    | _ -> ()
  in
  expr mb.mb_expr

let collect_mutable_record_types units =
  let keys = ref SSet.empty in
  let stamps = Hashtbl.create 64 in
  List.iter
    (fun u ->
      let rec items prefix str =
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_type (_, decls) ->
                List.iter
                  (fun td ->
                    match td.typ_kind with
                    | Ttype_record labels
                      when List.exists
                             (fun l -> l.ld_mutable = Asttypes.Mutable)
                             labels ->
                        keys :=
                          SSet.add
                            (key_of (prefix @ [ td.typ_name.Asttypes.txt ]))
                            !keys;
                        Hashtbl.replace stamps
                          (Ident.hash td.typ_id, Ident.name td.typ_id)
                          ()
                    | _ -> ())
                  decls
            | Tstr_module mb ->
                let name =
                  match mb.mb_name.Asttypes.txt with Some n -> n | None -> "_"
                in
                let rec expr me =
                  match me.mod_desc with
                  | Tmod_structure str -> items (prefix @ [ name ]) str
                  | Tmod_constraint (me, _, _, _) -> expr me
                  | _ -> ()
                in
                expr mb.mb_expr
            | _ -> ())
          str.str_items
      in
      items u.tu_modname u.tu_structure)
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
        (if has_hot_attr vb.vb_attributes then
           let name =
             match binding_ident vb with Some (_, n) -> n | None -> "_"
           in
           check_hot_body ~file:u.tu_file ~name vb.vb_expr report);
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
(* Entry points                                                        *)

let dedup_diags diags =
  (* Nested sink applications can report one expression twice with
     different sink names; collapse to the first in sort order so the
     output is byte-stable. *)
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

let lint_units ?rules units =
  let rules =
    match rules with
    | Some rs -> rs
    | None -> List.map (fun r -> r.Rule.id) Rule.typed
  in
  let want id = List.exists (String.equal id) rules in
  let found = ref [] in
  let report d = found := d :: !found in
  if want Rule.domain_race.Rule.id then run_domain_race units report;
  if want Rule.hot_path_alloc.Rule.id then run_hot_path_alloc units report;
  if want Rule.intern_id_escape.Rule.id then run_intern_id_escape units report;
  if want Rule.blocking_in_eventloop.Rule.id then
    run_blocking_in_eventloop units report;
  let sources =
    List.map (fun u -> (u.tu_file, u.tu_source)) units
  in
  dedup_diags !found
  |> List.filter (fun (d : Diagnostic.t) ->
         match List.assoc_opt d.Diagnostic.file sources with
         | Some source -> not (Engine.suppressed_in ~source d)
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

let load_cmt ?source_root path =
  match Cmt_format.read_cmt path with
  | exception (Sys_error msg | Failure msg) -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated cmt file")
  | exception Cmi_format.Error _ -> Error (path ^ ": not a cmt file (cmi or version mismatch)")
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src
        when Filename.check_suffix src ".ml" ->
          let candidates =
            src
            :: Filename.concat cmt.Cmt_format.cmt_builddir src
            ::
            (match source_root with
            | Some root -> [ Filename.concat root src ]
            | None -> [])
          in
          (match read_source candidates with
          | Some source ->
              Ok
                (Some
                   {
                     tu_file = src;
                     tu_source = source;
                     tu_modname = split_dunder cmt.Cmt_format.cmt_modname;
                     tu_structure = str;
                   })
          | None -> Ok None)
      | _ -> Ok None)
