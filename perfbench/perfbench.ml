(* perfbench: one command, three workloads.

     perfbench.exe --workload chain|churn|serve --seed N --seconds S --trace 0|1

   Untraced runs (--trace 0) print the workload's end-to-end metrics;
   traced runs (--trace 1) record a span around every call into a layer
   and print the per-layer metrics instead.  The last stdout line is one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
   code is nonzero when a correctness gate failed. *)

let usage =
  "perfbench.exe --workload chain|churn|serve --seed N --seconds S --trace 0|1"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let child = ref false and socket = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME chain, churn or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 record per-layer spans");
      ("--serve-child", Arg.Set child, " run as the serve workload's server process");
      ("--socket", Arg.Set_string socket, "PATH server socket (with --serve-child)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 in
  if !child then Serve_workload.child ~seed:!seed ~socket:!socket ~trace
  else begin
    let run =
      match !workload with
      | "chain" -> Chain_workload.run
      | "churn" -> Churn_workload.run
      | "serve" -> Serve_workload.run
      | w ->
          prerr_endline ("perfbench: unknown workload " ^ w ^ "\n" ^ usage);
          exit 2
    in
    let outcome = run ~seed:!seed ~seconds:!seconds ~trace in
    if not (Bench_common.report ~workload:!workload ~seed:!seed ~trace outcome) then exit 1
  end
