(* The linter linted: each rule fires on a minimal snippet at the exact
   line, path scoping holds, and the legitimate patterns (local state,
   module-defined compare, suppressions, the baseline) stay quiet.

   Rules run over the Typedtree, so fixtures are typechecked in-process
   against the stdlib ([Compmisc.initial_env]).  Fixtures that exercise
   intern-id-escape define their own local [Path_intern] and [Rpi_json]
   modules — the rules match on normalized path components, so a
   locally-scoped module with the right name behaves exactly like the
   real one without needing the repo's cmi files on the load path. *)

module Rule = Rpi_lint.Rule
module Diagnostic = Rpi_lint.Diagnostic
module Baseline = Rpi_lint.Baseline
module Pass = Rpi_lint.Pass
module Typed_engine = Rpi_lint.Typed_engine

let typing_env =
  lazy
    (Compmisc.init_path ();
     Compmisc.initial_env ())

let typecheck_unit ?env ?(modname = [ "Fixture" ]) ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  let parsed = Parse.implementation lexbuf in
  let env = match env with Some e -> e | None -> Lazy.force typing_env in
  let str, _, _, _, _ = Typemod.type_structure env parsed in
  {
    Typed_engine.tu_file = file;
    tu_source = source;
    tu_modname = modname;
    tu_structure = str;
    tu_interface = None;
  }

let typecheck_interface ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  {
    Typed_engine.ti_file = file;
    ti_source = source;
    ti_signature =
      Typemod.transl_signature (Lazy.force typing_env) (Parse.interface lexbuf);
  }

(* (rule, line) pairs, report order: every rule, or the ones in [rules]. *)
let hits ?rules ?modname ~file source =
  List.map
    (fun (d : Diagnostic.t) -> (d.Diagnostic.rule, d.Diagnostic.line))
    (Typed_engine.lint_units ?rules ~callers:[] [ typecheck_unit ?modname ~file source ])

let pair = Alcotest.(list (pair string int))

let all_rules = List.map (fun (r : Rule.t) -> r.Rule.id) Rule.all

let test_mutable_toplevel () =
  Alcotest.check pair "toplevel Hashtbl"
    [ ("mutable-toplevel", 2) ]
    (hits ~file:"lib/core/fake.ml" "let ok = 1\nlet cache = Hashtbl.create 8\n");
  Alcotest.check pair "toplevel ref"
    [ ("mutable-toplevel", 1) ]
    (hits ~file:"lib/core/fake.ml" "let hits = ref 0\n");
  Alcotest.check pair "mutable record type"
    [ ("mutable-toplevel", 1) ]
    (hits ~file:"lib/core/fake.ml" "type t = { mutable count : int }\n");
  Alcotest.check pair "nested module toplevel"
    [ ("mutable-toplevel", 2) ]
    (hits ~file:"lib/core/fake.ml"
       "module Inner = struct\n  let tbl = Hashtbl.create 4\nend\n");
  Alcotest.check pair "array literal"
    [ ("mutable-toplevel", 1) ]
    (hits ~file:"lib/core/fake.ml" "let scratch = [| 0; 0 |]\n");
  let intf =
    "type t\n\
     type cell = { id : int; mutable hits : int }\n\
     module Inner : sig\n\
    \  type r = { mutable x : int }\n\
     end\n"
  in
  let u =
    {
      (typecheck_unit ~file:"lib/core/fake.ml" "type t = int\n") with
      Typed_engine.tu_interface =
        Some (typecheck_interface ~file:"lib/core/fake.mli" intf);
    }
  in
  Alcotest.(check (list string))
    "each mutable record field an interface declares, at its label"
    [
      "lib/core/fake.mli:2:24 [mutable-toplevel]";
      "lib/core/fake.mli:4:13 [mutable-toplevel]";
    ]
    (List.map
       (fun (d : Diagnostic.t) ->
         Printf.sprintf "%s:%d:%d [%s]" d.Diagnostic.file d.Diagnostic.line
           d.Diagnostic.col d.Diagnostic.rule)
       (Typed_engine.lint_units ~callers:[] [ u ]))

let test_mutable_toplevel_quiet () =
  Alcotest.check pair "local Hashtbl inside a function is fine" []
    (hits ~file:"lib/core/fake.ml"
       "let count xs =\n\
       \  let tbl = Hashtbl.create 8 in\n\
       \  List.iter (fun x -> Hashtbl.replace tbl x ()) xs;\n\
       \  Hashtbl.length tbl\n");
  Alcotest.check pair "domain-safe primitives are exempt" []
    (hits ~file:"lib/core/fake.ml"
       "let lock = Mutex.create ()\nlet hits = Atomic.make 0\n");
  Alcotest.check pair "functor bodies create per-application state" []
    (hits ~file:"lib/core/fake.ml"
       "module Make () = struct\n  let tbl = Hashtbl.create 4\nend\n")

let test_poly_compare () =
  Alcotest.check pair "Stdlib.compare"
    [ ("poly-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml" "let cmp a b = Stdlib.compare a b\n");
  Alcotest.check pair "bare compare"
    [ ("poly-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml" "let sort xs = List.sort compare xs\n");
  Alcotest.check pair "bare compare above the module's own"
    [ ("poly-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml"
       "let sort xs = List.sort compare xs\n\
        let compare a b = Int.compare a b\n");
  Alcotest.check pair "(=) on a string literal"
    [ ("poly-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml" "let is_rib l = l = \"RIB\"\n");
  Alcotest.check pair "(<>) on Some"
    [ ("poly-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml" "let f x = x <> Some 3\n")

let test_poly_compare_quiet () =
  (* The allowlisted pattern: a module defining its own compare may call
     it bare — route.ml/relationship.ml after the rank refactor. *)
  Alcotest.check pair "module-defined compare" []
    (hits ~file:"lib/bgp/fake.ml"
       "let rank = function `A -> 0 | `B -> 1\n\
        let compare a b = Int.compare (rank a) (rank b)\n\
        let equal a b = compare a b = 0\n");
  Alcotest.check pair "int and empty-string comparisons are fine" []
    (hits ~file:"lib/bgp/fake.ml"
       "let f n s xs = n = 0 && String.length s = 1 && s = \"\" && xs = []\n")

let test_catch_all () =
  Alcotest.check pair "with _ ->"
    [ ("catch-all-handler", 1) ]
    (hits ~file:"lib/mrt/fake.ml"
       "let f x = try int_of_string x with _ -> 0\n");
  Alcotest.check pair "match ... with exception _"
    [ ("catch-all-handler", 1) ]
    (hits ~file:"lib/mrt/fake.ml"
       "let f x = match int_of_string x with v -> v | exception _ -> 0\n");
  Alcotest.check pair "specific exception is fine" []
    (hits ~file:"lib/mrt/fake.ml"
       "let f x = try int_of_string x with Failure _ -> 0\n")

let test_obj_magic () =
  Alcotest.check pair "Obj.magic in lib"
    [ ("no-obj-magic", 1) ]
    (hits ~file:"lib/sim/fake.ml" "let f x = Obj.magic x\n");
  Alcotest.check pair "Marshal in lib"
    [ ("no-obj-magic", 1) ]
    (hits ~file:"lib/sim/fake.ml"
       "let f x = Marshal.to_string x []\n");
  Alcotest.check pair "Obj in bin is tolerated" []
    (hits ~file:"bin/fake.ml" "let f x = Obj.magic x\n")

let test_stdout_in_lib () =
  Alcotest.check pair "print_endline in lib"
    [ ("stdout-in-lib", 1) ]
    (hits ~file:"lib/stats/fake.ml" "let f () = print_endline \"hi\"\n");
  Alcotest.check pair "Printf.printf in lib"
    [ ("stdout-in-lib", 1) ]
    (hits ~file:"lib/stats/fake.ml" "let f n = Printf.printf \"%d\" n\n");
  Alcotest.check pair "printing from bin is fine" []
    (hits ~file:"bin/fake.ml" "let f () = print_endline \"hi\"\n");
  Alcotest.check pair "sprintf in lib is fine" []
    (hits ~file:"lib/stats/fake.ml" "let f n = Printf.sprintf \"%d\" n\n")

let test_failwith_in_core () =
  Alcotest.check pair "failwith in core"
    [ ("failwith-in-core", 1) ]
    (hits ~file:"lib/core/fake.ml" "let f () = failwith \"boom\"\n");
  Alcotest.check pair "assert false in core"
    [ ("failwith-in-core", 1) ]
    (hits ~file:"lib/core/fake.ml" "let f () = assert false\n");
  Alcotest.check pair "failwith outside core is tolerated" []
    (hits ~file:"lib/bgp/fake.ml" "let f () = failwith \"boom\"\n");
  Alcotest.check pair "ordinary assert is fine" []
    (hits ~file:"lib/core/fake.ml" "let f n = assert (n > 0)\n")

let test_list_length_in_compare () =
  Alcotest.check pair "List.length in a compare* binding (one per occurrence)"
    [ ("list-length-in-compare", 1); ("list-length-in-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml"
       "let compare_paths a b = Int.compare (List.length a) (List.length b)\n");
  Alcotest.check pair "List.nth in a compare* binding"
    [ ("list-length-in-compare", 2); ("list-length-in-compare", 2) ]
    (hits ~file:"lib/bgp/fake.ml"
       "let compare_first xs ys =\n\
       \  Int.compare (List.nth xs 0) (List.nth ys 0)\n");
  Alcotest.check pair "lambda passed to List.sort"
    [ ("list-length-in-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml"
       "let f xs = List.sort (fun a b -> Int.compare (List.length a) 0) xs\n");
  Alcotest.check pair "lambda passed to Array.stable_sort"
    [ ("list-length-in-compare", 1); ("list-length-in-compare", 1) ]
    (hits ~file:"lib/bgp/fake.ml"
       "let f a = Array.stable_sort (fun x y -> Int.compare (List.length x) (List.nth y 0)) a\n");
  Alcotest.check pair "local compare* binding inside a function"
    [ ("list-length-in-compare", 2); ("list-length-in-compare", 2) ]
    (hits ~file:"lib/bgp/fake.ml"
       "let f xs =\n\
       \  let compare_rows a b = Int.compare (List.length a) (List.length b) in\n\
       \  List.sort compare_rows xs\n")

let test_list_length_in_compare_quiet () =
  Alcotest.check pair "List.length outside comparators is fine" []
    (hits ~file:"lib/bgp/fake.ml" "let f xs = List.length xs\n");
  Alcotest.check pair "compare* using a precomputed length is fine" []
    (hits ~file:"lib/bgp/fake.ml"
       "let compare_rows a b = Int.compare (fst a) (fst b)\n");
  Alcotest.check pair "List.compare_lengths is the endorsed spelling" []
    (hits ~file:"lib/bgp/fake.ml"
       "let compare_paths a b = List.compare_lengths a b\n");
  Alcotest.check pair "sort with a named comparator is fine at the call site" []
    (hits ~file:"lib/bgp/fake.ml" "let f xs = List.sort Int.compare xs\n");
  Alcotest.check pair "List.length in sort's *input*, not its comparator" []
    (hits ~file:"lib/bgp/fake.ml"
       "let f xs = List.sort Int.compare (List.map List.length xs)\n")

(* Run [f] from a fresh directory holding [files] (relative path,
   contents); the directory is removed afterwards. *)
let in_temp_tree files f =
  let root = Filename.temp_dir "test_lint" "" in
  let rec mkdirs dir =
    if not (Sys.file_exists dir) then begin
      mkdirs (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  List.iter
    (fun (path, contents) ->
      let path = Filename.concat root path in
      mkdirs (Filename.dirname path);
      Out_channel.with_open_text path (fun oc -> output_string oc contents))
    files;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let here = Sys.getcwd () in
  Sys.chdir root;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir here;
      remove root)
    f

let test_missing_mli () =
  in_temp_tree
    [
      ("lib/core/a.ml", "");
      ("lib/core/b.ml", "");
      ("lib/core/b.mli", "");
      ("bin/c.ml", "");
    ]
    (fun () ->
      let diags =
        Pass.missing_mli [ "lib/core/a.ml"; "lib/core/b.ml"; "lib/core/b.mli"; "bin/c.ml" ]
      in
      Alcotest.check pair "only the uncovered lib module"
        [ ("missing-mli", 1) ]
        (List.map (fun (d : Diagnostic.t) -> (d.Diagnostic.rule, d.Diagnostic.line)) diags);
      Alcotest.(check string)
        "names the file" "lib/core/a.ml"
        (match diags with d :: _ -> d.Diagnostic.file | [] -> "");
      Alcotest.check pair "the interface counts when it is on disk, walked or not" []
        (List.map
           (fun (d : Diagnostic.t) -> (d.Diagnostic.rule, d.Diagnostic.line))
           (Pass.missing_mli [ "lib/core/b.ml" ])))

let test_suppression () =
  Alcotest.check pair "comment above the line" []
    (hits ~file:"lib/core/fake.ml"
       "(* rpilint: allow mutable-toplevel *)\nlet cache = Hashtbl.create 8\n");
  Alcotest.check pair "trailing comment on the line" []
    (hits ~file:"lib/core/fake.ml"
       "let cache = Hashtbl.create 8 (* rpilint: allow mutable-toplevel *)\n");
  Alcotest.check pair "suppression is rule-specific"
    [ ("mutable-toplevel", 2) ]
    (hits ~file:"lib/core/fake.ml"
       "(* rpilint: allow poly-compare *)\nlet cache = Hashtbl.create 8\n");
  Alcotest.check pair "suppression does not leak past the next line"
    [ ("mutable-toplevel", 3) ]
    (hits ~file:"lib/core/fake.ml"
       "(* rpilint: allow mutable-toplevel *)\nlet ok = 1\nlet cache = Hashtbl.create 8\n")

let test_baseline () =
  let baseline =
    match
      Baseline.parse_string
        "# comment\nmutable-toplevel lib/prng/prng.ml\npoly-compare lib/topo\n"
    with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let d file rule = { Diagnostic.file; line = 1; col = 0; rule; message = "m" } in
  Alcotest.(check int)
    "exact file and directory prefix are filtered" 1
    (List.length
       (Baseline.apply baseline
          [
            d "lib/prng/prng.ml" "mutable-toplevel";
            d "lib/topo/relationship.ml" "poly-compare";
            d "lib/bgp/route.ml" "poly-compare";
          ]));
  (match Baseline.parse_string "no-such-rule lib/x.ml\n" with
  | Ok _ -> Alcotest.fail "unknown rule id must be rejected"
  | Error _ -> ());
  match Baseline.parse_string "gibberish\n" with
  | Ok _ -> Alcotest.fail "entry without a path must be rejected"
  | Error _ -> ()

(* A source with no build artifacts beside it is checked by no rule,
   which is an operational error, not a clean result. *)
let test_uncovered_source () =
  in_temp_tree
    [ ("src/clean.ml", "let x = 1\n") ]
    (fun () ->
      let findings, _ = Pass.run ~rules:all_rules ~baseline:Baseline.empty [ "src" ] in
      Alcotest.(check (list (pair string string)))
        "one cmt-error naming the file"
        [ ("src/clean.ml", Typed_engine.cmt_error_rule) ]
        (List.map
           (fun (d : Diagnostic.t) -> (d.Diagnostic.file, d.Diagnostic.rule))
           findings);
      Alcotest.(check bool)
        "says how to build the artifacts" true
        (List.for_all
           (fun (d : Diagnostic.t) ->
             String.ends_with ~suffix:"run `dune build @lint` first" d.Diagnostic.message)
           findings))

let test_diagnostic_output () =
  let d =
    {
      Diagnostic.file = "lib/bgp/route.ml";
      line = 77;
      col = 17;
      rule = "poly-compare";
      message = "msg";
    }
  in
  Alcotest.(check string)
    "text format" "lib/bgp/route.ml:77:17 [poly-compare] msg"
    (Diagnostic.to_string d);
  match Rpi_json.of_string (Rpi_json.to_string (Diagnostic.to_json d)) with
  | Ok (Rpi_json.Obj fields) ->
      Alcotest.(check (option string))
        "rule field"
        (Some "poly-compare")
        (match List.assoc_opt "rule" fields with
        | Some (Rpi_json.String s) -> Some s
        | _ -> None)
  | Ok _ | Error _ -> Alcotest.fail "diagnostic JSON must parse back to an object"

let test_rule_catalogue () =
  Alcotest.(check int) "thirteen shipped rules" 13 (List.length Rule.all);
  List.iter
    (fun (r : Rule.t) ->
      Alcotest.(check bool)
        (r.Rule.id ^ " resolvable")
        true
        (match Rule.find r.Rule.id with Some _ -> true | None -> false))
    Rule.all

(* ------------------------------------------------------------------ *)
(* Interprocedural and type-directed rules.  Their fixtures select the
   rule under test where a snippet would also trip another one (the
   domain-race fixtures hold module-level refs on purpose). *)

let test_domain_race () =
  Alcotest.check pair "ref mutated from a spawned closure, via a local call"
    [ ("domain-race", 2) ]
    (hits ~rules:[ "domain-race" ] ~file:"lib/fake/race.ml"
       "let total = ref 0\n\
        let bump () = incr total\n\
        let run_workers () = ignore (Domain.spawn (fun () -> bump ()))\n");
  Alcotest.check pair "Hashtbl shared with the pool closure directly"
    [ ("domain-race", 3) ]
    (hits ~rules:[ "domain-race" ] ~file:"lib/fake/race.ml"
       "let cache : (int, int) Hashtbl.t = Hashtbl.create 8\n\
        let work () =\n\
       \  ignore (Domain.spawn (fun () -> Hashtbl.replace cache 1 2))\n")

let test_domain_race_quiet () =
  Alcotest.check pair "Atomic state is exempt" []
    (hits ~rules:[ "domain-race" ] ~file:"lib/fake/race.ml"
       "let total = Atomic.make 0\n\
        let bump () = Atomic.incr total\n\
        let run_workers () = ignore (Domain.spawn (fun () -> bump ()))\n");
  Alcotest.check pair "mutable state never reached from a spawn is quiet" []
    (hits ~rules:[ "domain-race" ] ~file:"lib/fake/race.ml"
       "let total = ref 0\n\
        let bump () = incr total\n\
        let run_workers () = ignore (Domain.spawn (fun () -> 1 + 1))\n");
  Alcotest.check pair "mutex-guarded access is quiet" []
    (hits ~rules:[ "domain-race" ] ~file:"lib/fake/race.ml"
       "let lock = Mutex.create ()\n\
        let total = ref 0\n\
        let bump () = Mutex.lock lock; incr total; Mutex.unlock lock\n\
        let run_workers () = ignore (Domain.spawn (fun () -> bump ()))\n");
  Alcotest.check pair "local mutable state inside the closure is quiet" []
    (hits ~rules:[ "domain-race" ] ~file:"lib/fake/race.ml"
       "let run_workers () =\n\
       \  ignore (Domain.spawn (fun () -> let c = ref 0 in incr c; !c))\n")

let test_hot_path_alloc () =
  Alcotest.check pair "closure allocated inside a hot function"
    [ ("hot-path-alloc", 2) ]
    (hits ~file:"lib/fake/hot.ml"
       "let[@rpilint.hot] apply_twice f x =\n\
       \  let g y = f (f y) in\n\
       \  g x\n");
  (* The Printf line carries two findings: the call itself and the
     format literal, which elaborates to a boxed CamlinternalFormat
     constructor — both genuinely allocate. *)
  Alcotest.check pair "tuple and Printf each flagged"
    [ ("hot-path-alloc", 2); ("hot-path-alloc", 3); ("hot-path-alloc", 3) ]
    (hits ~file:"lib/fake/hot.ml"
       "let[@rpilint.hot] f a b =\n\
       \  let p = (a, b) in\n\
       \  Printf.sprintf \"%d\" (fst p)\n")

let test_hot_path_alloc_quiet () =
  Alcotest.check pair "scalar arithmetic with a match spine is quiet" []
    (hits ~file:"lib/fake/hot.ml"
       "let[@rpilint.hot] rank = function 0 -> 1 | n -> (n * 2) + 1\n");
  Alcotest.check pair "unannotated allocating function is quiet" []
    (hits ~file:"lib/fake/hot.ml"
       "let apply_twice f x =\n\
       \  let g y = f (f y) in\n\
       \  g x\n");
  Alcotest.check pair "suppression comment applies to typed findings too" []
    (hits ~file:"lib/fake/hot.ml"
       "let[@rpilint.hot] apply_twice f x =\n\
       \  (* rpilint: allow hot-path-alloc *)\n\
       \  let g y = f (f y) in\n\
       \  g x\n")

let test_hot_path_alloc_csr () =
  (* The engine's CSR row walk, the way the scaled solver writes it:
     flat int-array reads driven by edge indices — nothing boxes, so
     the hot annotation stays quiet... *)
  Alcotest.check pair "allocation-free CSR row traversal is quiet" []
    (hits ~file:"lib/fake/csr.ml"
       "let[@rpilint.hot] rec row_sum (dst : int array) (rel : int array) t stop \
        acc =\n\
       \  if t >= stop then acc\n\
       \  else row_sum dst rel (t + 1) stop (acc + dst.(t) + rel.(t))\n");
  (* ...while the pre-CSR shape — materializing a (neighbor, rel) pair
     per visited edge — allocates a tuple and a cons cell on every
     iteration and is exactly what the rule exists to catch. *)
  Alcotest.check pair "per-edge pair materialization is flagged"
    [ ("hot-path-alloc", 3); ("hot-path-alloc", 3) ]
    (hits ~file:"lib/fake/csr.ml"
       "let[@rpilint.hot] rec row_pairs (dst : int array) (rel : int array) t \
        stop acc =\n\
       \  if t >= stop then acc\n\
       \  else row_pairs dst rel (t + 1) stop ((dst.(t), rel.(t)) :: acc)\n")

let test_hot_path_alloc_printer () =
  (* A buffer printer that formats through an intermediate string
     allocates it on every call, however it is spelled... *)
  Alcotest.check pair "Printf and string_of_int in a printer are flagged"
    [ ("hot-path-alloc", 2); ("hot-path-alloc", 2); ("hot-path-alloc", 3) ]
    (hits ~file:"lib/fake/printer.ml"
       "let[@rpilint.hot] add_pair buf a b =\n\
       \  Buffer.add_string buf (Printf.sprintf \"%d:\" a);\n\
       \  Buffer.add_string buf (string_of_int b)\n");
  (* ...while writing the digits straight into the buffer does not. *)
  Alcotest.check pair "digits written into the buffer are quiet" []
    (hits ~file:"lib/fake/printer.ml"
       "let[@rpilint.hot] rec add_digits buf n =\n\
       \  if n >= 10 then add_digits buf (n / 10);\n\
       \  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))\n")

(* Local stand-ins for the real modules: the rule matches normalized
   path components, so [Path_intern.id] and [Rpi_json.t] here trip it
   exactly like the library ones. *)
let escape_prelude =
  "module Path_intern : sig\n\
  \  type id\n\
  \  val intern : int -> id\n\
  \  val to_int : id -> int\n\
   end = struct\n\
  \  type id = int\n\
  \  let intern x = x\n\
  \  let to_int x = x\n\
   end\n\
   module Rpi_json = struct\n\
  \  type t = Null | Int of int\n\
   end\n"

let prelude_lines = 12

let test_intern_id_escape () =
  Alcotest.check pair "id reaching a JSON constructor argument"
    [ ("intern-id-escape", prelude_lines + 1) ]
    (hits ~file:"lib/fake/escape.ml"
       (escape_prelude
      ^ "let leak (p : Path_intern.id) = Rpi_json.Int (Path_intern.to_int p)\n"))

let test_intern_id_escape_quiet () =
  Alcotest.check pair "plain ints serialize freely" []
    (hits ~file:"lib/fake/escape.ml"
       (escape_prelude ^ "let fine (n : int) = Rpi_json.Int n\n"));
  Alcotest.check pair "converting before the serializer call is the fix" []
    (hits ~file:"lib/fake/escape.ml"
       (escape_prelude
      ^ "let ok p = let n = Path_intern.to_int p in Rpi_json.Int n\n"))


(* Unix is not on the fixture load path, so stand in a local module —
   the rule matches normalized path components, exactly as the
   intern-id fixtures do for Path_intern. *)
let blocking_prelude =
  "module Unix = struct\n\
  \  let read () = 0\n\
  \  let sleepf (_ : float) = ()\n\
  \  let select x = x\n\
   end\n"

let blocking_lines = 5

let test_blocking_in_eventloop () =
  Alcotest.check pair "blocking read in event-loop code"
    [ ("blocking-in-eventloop", blocking_lines + 1) ]
    (hits
       ~modname:[ "Rpi_serve"; "Eventloop" ]
       ~file:"lib/serve/eventloop.ml"
       (blocking_prelude ^ "let pump () = Unix.read ()\n"));
  Alcotest.check pair "sleep in a helper of a Conn unit"
    [ ("blocking-in-eventloop", blocking_lines + 1) ]
    (hits
       ~modname:[ "Rpi_serve"; "Conn" ]
       ~file:"lib/serve/conn.ml"
       (blocking_prelude
      ^ "let nap () = Unix.sleepf 0.5\n\
         let turn () = nap ()\n"))

let test_blocking_in_eventloop_quiet () =
  Alcotest.check pair "select is the sanctioned parking point" []
    (hits
       ~modname:[ "Rpi_serve"; "Eventloop" ]
       ~file:"lib/serve/eventloop.ml"
       (blocking_prelude ^ "let park x = Unix.select x\n"));
  Alcotest.check pair "identical source outside the serving core is quiet" []
    (hits ~file:"lib/fake/other.ml"
       (blocking_prelude ^ "let pump () = Unix.read ()\n"));
  Alcotest.check pair "suppression comment on the line above" []
    (hits
       ~modname:[ "Rpi_serve"; "Conn" ]
       ~file:"lib/serve/conn.ml"
       (blocking_prelude
      ^ "let pump () =\n\
        \  (* rpilint: allow blocking-in-eventloop *)\n\
        \  Unix.read ()\n"))

let test_typed_rule_selection () =
  let source =
    "let total = ref 0\n\
     let bump () = incr total\n\
     let run_workers () = ignore (Domain.spawn (fun () -> bump ()))\n\
     let[@rpilint.hot] pair_up a b = (a, b)\n"
  in
  Alcotest.check pair "every rule by default"
    [ ("mutable-toplevel", 1); ("domain-race", 2); ("hot-path-alloc", 4) ]
    (hits ~file:"lib/fake/mixed.ml" source);
  Alcotest.check pair "single-rule run sees only its own findings"
    [ ("hot-path-alloc", 4) ]
    (hits ~rules:[ "hot-path-alloc" ] ~file:"lib/fake/mixed.ml" source)

let test_typed_ordering () =
  (* Deterministic output order: sorted by file, then line, whatever the
     unit order given to the engine. *)
  let unit_a =
    typecheck_unit ~file:"lib/fake/a.ml"
      "let[@rpilint.hot] f a b = (a, b)\n"
  in
  let unit_b =
    typecheck_unit ~file:"lib/fake/b.ml"
      "let[@rpilint.hot] g a b = (b, a)\n"
  in
  let files l = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.file) l in
  Alcotest.(check (list string))
    "sorted by file regardless of input order"
    [ "lib/fake/a.ml"; "lib/fake/b.ml" ]
    (files (Typed_engine.lint_units ~callers:[] [ unit_b; unit_a ]));
  Alcotest.(check (list string))
    "same order when given in order"
    [ "lib/fake/a.ml"; "lib/fake/b.ml" ]
    (files (Typed_engine.lint_units ~callers:[] [ unit_a; unit_b ]))

(* unused-export fixtures: a one-module library [Rpi_fake.Api]
   (lib/fake/api.ml with its .mli) and callers typechecked in an
   environment where it is visible under dune's mangled name, as a
   library module is to every other unit.  [Rpi_fake__Hub] re-exports
   it through a module alias. *)

let api_intf =
  "val unused : int\n\
   val internal : int -> int\n\
   val main : int -> int\n"

let api_impl = "let unused = 0\nlet internal x = x + 1\nlet main x = internal x\n"

let api_unit ?(intf = api_intf) ?(impl = api_impl) () =
  {
    (typecheck_unit ~modname:[ "Rpi_fake"; "Api" ] ~file:"lib/fake/api.ml"
       impl)
    with
    Typed_engine.tu_interface =
      Some (typecheck_interface ~file:"lib/fake/api.mli" intf);
  }

let api_env =
  lazy
    (let source =
       Printf.sprintf
         "module Rpi_fake__Api : sig %s end = struct %s end\n\
          module Rpi_fake__Hub = struct module Api = Rpi_fake__Api end\n"
         api_intf api_impl
     in
     let _, _, _, _, env =
       Typemod.type_structure (Lazy.force typing_env)
         (Parse.implementation (Lexing.from_string source))
     in
     env)

let caller ?(file = "lib/fake/user.ml") ?(modname = [ "Rpi_fake"; "User" ])
    source =
  typecheck_unit ~env:(Lazy.force api_env) ~modname ~file source

(* (file, line) of each unused-export finding on [Rpi_fake.Api]. *)
let unused_exports ?intf ?impl ?(callers = []) units =
  List.map
    (fun (d : Diagnostic.t) -> (d.Diagnostic.file, d.Diagnostic.line))
    (Typed_engine.lint_units ~rules:[ "unused-export" ] ~callers
       (api_unit ?intf ?impl () :: units))

let test_unused_export () =
  Alcotest.check pair
    "one finding for the value nothing reads, one for the value only its \
     own .ml reads"
    [ ("lib/fake/api.mli", 1); ("lib/fake/api.mli", 2) ]
    (unused_exports [ caller "let w = Rpi_fake__Api.main 1\n" ]);
  Alcotest.check pair "with no caller every value is reported"
    [ ("lib/fake/api.mli", 1); ("lib/fake/api.mli", 2); ("lib/fake/api.mli", 3) ]
    (unused_exports []);
  Alcotest.check pair "a nested module's value only its own unit reads"
    [ ("lib/fake/api.mli", 1); ("lib/fake/api.mli", 2) ]
    (unused_exports
       ~intf:"module Sub : sig val x : int end\nval main : int -> int\n"
       ~impl:"module Sub = struct let x = 1 end\nlet main y = y + Sub.x\n"
       []);
  Alcotest.check pair "a suppression comment on the line above silences it"
    [ ("lib/fake/api.mli", 4) ]
    (unused_exports
       ~intf:
         ("(* rpilint: allow unused-export *)\n" ^ api_intf)
       [ caller "let w = Rpi_fake__Api.internal 1\n" ])

(* Each case reads [main] directly and [internal] only through the
   construct named, so only [unused] is left over. *)
let test_unused_export_quiet () =
  let quiet name ?callers units =
    Alcotest.check pair name [ ("lib/fake/api.mli", 1) ]
      (unused_exports ?callers
         (caller ~file:"lib/fake/entry.ml" ~modname:[ "Rpi_fake"; "Entry" ]
            "let w = Rpi_fake__Api.main 1\n"
         :: units))
  in
  quiet "direct references" [ caller "let w = Rpi_fake__Api.internal 1\n" ];
  quiet "through a module alias"
    [ caller "module A = Rpi_fake__Api\nlet w = A.internal 1\n" ];
  quiet "through a let-module alias"
    [ caller "let w = let module A = Rpi_fake__Api in A.internal 1\n" ];
  quiet "through another unit's exported alias"
    [
      caller ~file:"lib/fake/hub.ml" ~modname:[ "Rpi_fake"; "Hub" ]
        "module Api = Rpi_fake__Api\n";
      caller "let w = Rpi_fake__Hub.Api.internal 1\n";
    ];
  Alcotest.check pair "open uses every value" []
    (unused_exports [ caller "open! Rpi_fake__Api\n" ]);
  Alcotest.check pair "include uses every value" []
    (unused_exports [ caller "include Rpi_fake__Api\n" ]);
  Alcotest.check pair "a functor argument uses every value" []
    (unused_exports
       [
         caller
           "module F (X : sig val main : int -> int end) = struct let w = X.main 1 end\n\
            module G = F (Rpi_fake__Api)\n";
       ]);
  Alcotest.check pair "a first-class module uses every value" []
    (unused_exports
       [
         caller
           "module type S = sig val main : int -> int end\n\
            let m = (module Rpi_fake__Api : S)\n";
       ]);
  quiet "from a test/ unit"
    ~callers:
      [
        caller ~file:"test/test_fake.ml" ~modname:[ "Dune"; "exe"; "Test_fake" ]
          "let w = Rpi_fake__Api.internal 1\n";
      ]
    [];
  quiet "from a perfbench/ unit"
    ~callers:
      [
        caller ~file:"perfbench/fake_workload.ml"
          ~modname:[ "Dune"; "exe"; "Fake_workload" ]
          "let w = Rpi_fake__Api.internal 1\n";
      ]
    [];
  Alcotest.(check (list string))
    "test/ and perfbench/ are caller roots" [ "perfbench"; "test" ]
    (List.filter
       (fun r -> List.mem r [ "perfbench"; "test" ])
       Rpi_lint.Rule.caller_roots)

(* Run [f] from the build context's root, where dune keeps the sources
   beside their .cmt/.cmti artifacts: tests run from _build/default/test,
   so that is the parent; fall back to the cwd for odd invocations. *)
let at_build_root f =
  match
    List.find_opt (fun r -> Sys.file_exists (Filename.concat r "lib/lint")) [ ".."; "." ]
  with
  | None -> Alcotest.skip ()
  | Some root ->
      let here = Sys.getcwd () in
      Sys.chdir root;
      Fun.protect ~finally:(fun () -> Sys.chdir here) f

let lint_allow () =
  match Baseline.load "lint.allow" with Ok b -> b | Error e -> Alcotest.fail e

(* Lint the built tree as [dune build @lint] does: every rule,
   unused-export reading every caller root, the checked-in baseline.
   Each cmt must load and each source must be covered (either failure is
   a cmt-error finding), and the shipped tree must be clean. *)
let test_cmt_smoke () =
  let findings, timing =
    at_build_root (fun () ->
        Pass.run ~rules:all_rules ~baseline:(lint_allow ()) Pass.default_roots)
  in
  Alcotest.(check bool)
    (Printf.sprintf "loaded the caller roots' units too (%d units)"
       timing.Pass.cmt_units)
    true
    (timing.Pass.cmt_units > 100);
  Alcotest.(check (list (pair string int)))
    "shipped tree is clean" []
    (List.map
       (fun (d : Diagnostic.t) -> (d.Diagnostic.rule, d.Diagnostic.line))
       findings)

(* A file root: its unit is found under its directory, and its interface
   beside it on disk, though the walk saw neither. *)
let test_cmt_smoke_file () =
  let file = "lib/stats/table.ml" in
  let all, only_mutable =
    at_build_root (fun () ->
        ( Pass.run ~rules:all_rules ~baseline:(lint_allow ()) [ file ],
          Pass.run ~rules:[ "mutable-toplevel" ] ~baseline:Baseline.empty [ file ] ))
  in
  Alcotest.(check (list (pair string int)))
    "clean under every rule" []
    (List.map
       (fun (d : Diagnostic.t) -> (d.Diagnostic.rule, d.Diagnostic.line))
       (fst all));
  let findings, timing = only_mutable in
  Alcotest.(check int) "loaded Table's unit alone" 1 timing.Pass.cmt_units;
  Alcotest.(check (list (pair string int)))
    "its rules ran on it: the baselined mutable record"
    [ (file, 6) ]
    (List.map
       (fun (d : Diagnostic.t) -> (d.Diagnostic.file, d.Diagnostic.line))
       findings)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "mutable-toplevel" `Quick test_mutable_toplevel;
          Alcotest.test_case "mutable-toplevel quiet" `Quick test_mutable_toplevel_quiet;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "poly-compare quiet" `Quick test_poly_compare_quiet;
          Alcotest.test_case "catch-all-handler" `Quick test_catch_all;
          Alcotest.test_case "no-obj-magic" `Quick test_obj_magic;
          Alcotest.test_case "stdout-in-lib" `Quick test_stdout_in_lib;
          Alcotest.test_case "failwith-in-core" `Quick test_failwith_in_core;
          Alcotest.test_case "list-length-in-compare" `Quick test_list_length_in_compare;
          Alcotest.test_case "list-length-in-compare quiet" `Quick
            test_list_length_in_compare_quiet;
          Alcotest.test_case "missing-mli" `Quick test_missing_mli;
        ] );
      ( "engine",
        [
          Alcotest.test_case "suppression comments" `Quick test_suppression;
          Alcotest.test_case "baseline" `Quick test_baseline;
          Alcotest.test_case "uncovered source" `Quick test_uncovered_source;
          Alcotest.test_case "diagnostic output" `Quick test_diagnostic_output;
          Alcotest.test_case "rule catalogue" `Quick test_rule_catalogue;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "domain-race" `Quick test_domain_race;
          Alcotest.test_case "domain-race quiet" `Quick test_domain_race_quiet;
          Alcotest.test_case "hot-path-alloc" `Quick test_hot_path_alloc;
          Alcotest.test_case "hot-path-alloc quiet" `Quick
            test_hot_path_alloc_quiet;
          Alcotest.test_case "hot-path-alloc CSR traversal" `Quick
            test_hot_path_alloc_csr;
          Alcotest.test_case "hot-path-alloc buffer printer" `Quick
            test_hot_path_alloc_printer;
          Alcotest.test_case "intern-id-escape" `Quick test_intern_id_escape;
          Alcotest.test_case "intern-id-escape quiet" `Quick
            test_intern_id_escape_quiet;
          Alcotest.test_case "blocking-in-eventloop" `Quick
            test_blocking_in_eventloop;
          Alcotest.test_case "blocking-in-eventloop quiet" `Quick
            test_blocking_in_eventloop_quiet;
          Alcotest.test_case "rule selection" `Quick test_typed_rule_selection;
          Alcotest.test_case "deterministic ordering" `Quick
            test_typed_ordering;
          Alcotest.test_case "unused-export" `Quick test_unused_export;
          Alcotest.test_case "unused-export quiet" `Quick
            test_unused_export_quiet;
          Alcotest.test_case "cmt smoke over lib/" `Quick test_cmt_smoke;
          Alcotest.test_case "cmt smoke over one file" `Quick test_cmt_smoke_file;
        ] );
    ]
