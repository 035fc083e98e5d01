type t = { id : string; summary : string; rationale : string }

let mutable_toplevel =
  {
    id = "mutable-toplevel";
    summary =
      "module-level mutable value (ref/Hashtbl.create/array/...) or mutable \
       record type";
    rationale =
      "Shared module-level mutable state races under OCaml 5 domains; the \
       parallel runner executes experiments concurrently.  Per-call state or \
       state carried in Context.t behind a mutex is safe; Atomic/Mutex/\
       Condition values are exempt.";
  }

let poly_compare =
  {
    id = "poly-compare";
    summary =
      "polymorphic Stdlib.compare / (=) / (<>) on a structural value";
    rationale =
      "Polymorphic compare walks the runtime representation: it orders \
       variants by declaration accident, raises on functional values, and \
       is a measurable cost on hot decision/sort paths.  Use the module's \
       dedicated compare/equal or an explicit rank function.";
  }

let catch_all_handler =
  {
    id = "catch-all-handler";
    summary = "try ... with _ -> swallows every exception";
    rationale =
      "A wildcard handler silently eats Out_of_memory, Stack_overflow and \
       programming errors alongside the one failure it meant to absorb, \
       corrupting results instead of failing loudly.  Match the specific \
       exception or let it propagate.";
  }

let no_obj_magic =
  {
    id = "no-obj-magic";
    summary = "Obj.* / Marshal.* in library code";
    rationale =
      "Obj.magic defeats the type system and Marshal round-trips are \
       unchecked at read time; neither belongs in inference code whose \
       whole value is that its results can be trusted.";
  }

let stdout_in_lib =
  {
    id = "stdout-in-lib";
    summary = "printing to stdout from library code";
    rationale =
      "Library output belongs in returned values (Exp.outcome, rendered \
       tables) so the runner, the JSON emitters and the tests all see the \
       same bytes; stray prints interleave nondeterministically under the \
       parallel runner.";
  }

let missing_mli =
  {
    id = "missing-mli";
    summary = "library module without an .mli interface";
    rationale =
      "An explicit interface is what keeps module-level state private and \
       the API surface reviewable; every lib/ module ships one.";
  }

let failwith_in_core =
  {
    id = "failwith-in-core";
    summary = "failwith / assert false in lib/core inference code";
    rationale =
      "The paper pipelines run for minutes over many inputs; a stringly \
       failure in the middle loses which input broke.  Core inference \
       signals errors with a typed Error or a dedicated exception.";
  }

let list_length_in_compare =
  {
    id = "list-length-in-compare";
    summary = "List.length / List.nth inside a comparator";
    rationale =
      "A comparator runs O(n log n) times under sort and once per candidate \
       in a selection scan; walking a list inside it turns a cheap \
       comparison into a linear pass each time.  Precompute the length \
       (store it alongside the list, as Engine.route does with path_len) \
       or use List.compare_lengths.";
  }

let domain_race =
  {
    id = "domain-race";
    summary =
      "module-level mutable state reachable from a closure passed to \
       Pool.run / Domain.spawn";
    rationale =
      "A function that runs on the domain pool executes concurrently with \
       its siblings; any module-level ref/Hashtbl/array it reads or writes \
       (transitively, through the whole-library call graph) is a data race \
       unless the value is an Atomic or every access is mutex-guarded.  \
       This is the typed, interprocedural form of mutable-toplevel: it \
       follows calls across modules from the actual spawn sites.";
  }

let hot_path_alloc =
  {
    id = "hot-path-alloc";
    summary =
      "allocation (closure, tuple/record/list, boxed float, Printf, \
       partial application) in a [@rpilint.hot] function";
    rationale =
      "Functions marked [@rpilint.hot] are the propagation inner loop, \
       the route comparators and the table codecs' buffer printers and \
       digit readers: they run per candidate visit or per table field and \
       must stay allocation-free so the solver never triggers the GC \
       mid-run and a table field costs no garbage to print or scan.  \
       Type information separates immediates (ints, constant constructors) \
       from boxed values, so the rule flags exactly the expressions that \
       cons on the OCaml heap.";
  }

let intern_id_escape =
  {
    id = "intern-id-escape";
    summary =
      "interned Path_intern.id value flowing into a serializer \
       (Rpi_json / Render / Protocol / dump renderers)";
    rationale =
      "An interned path id is an index into the per-run table that \
       produced it — meaningless in any output, golden or wire format \
       (DESIGN.md §7 invariant 2).  The typed engine tracks the id type \
       through expressions and rejects any that reaches a JSON \
       constructor, the ingest Render module, the wire Protocol or a \
       dump renderer; convert with Path_intern.to_list first.";
  }

let blocking_in_eventloop =
  {
    id = "blocking-in-eventloop";
    summary =
      "blocking Unix primitive (read/write/sleep/connect/accept/...) \
       reachable from Eventloop or Conn code";
    rationale =
      "The serving core is a readiness-driven multiplexer: every pool \
       domain runs one select loop over all of its live connections, so a \
       single blocking syscall parks the domain and stalls every \
       connection it owns.  All I/O inside Eventloop/Conn reachable code \
       must go through the non-blocking Conn wrappers (fds registered \
       with set_nonblock, EAGAIN handled); Unix.select is exempt — it is \
       the loop's one sanctioned parking point — and Mutex is covered by \
       the try_lock accept discipline, not this rule.";
  }

let caller_roots = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]

let unused_export =
  {
    id = "unused-export";
    summary =
      "value in a lib/ .mli that no other unit under "
      ^ String.concat ", " caller_roots
      ^ " references";
    rationale =
      "An exported value is API surface every reader has to learn and every \
       refactor has to keep; one that no other unit reads is code to delete \
       (or, when its own .ml still needs it, a name to drop from the \
       interface).  References resolve exactly through the typed tree, \
       dune's Lib__Module mangling and module aliases, from every unit \
       under the caller roots, tests and the perfbench yardstick included; \
       an open, include, functor argument or first-class module counts as \
       using every value of its module, so they never cause a finding.";
  }

let all =
  [
    mutable_toplevel;
    poly_compare;
    catch_all_handler;
    no_obj_magic;
    stdout_in_lib;
    missing_mli;
    failwith_in_core;
    list_length_in_compare;
    domain_race;
    hot_path_alloc;
    intern_id_escape;
    blocking_in_eventloop;
    unused_export;
  ]

let find id = List.find_opt (fun r -> String.equal r.id id) all
