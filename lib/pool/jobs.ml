let env_var = "RPI_JOBS"

let default () =
  match Sys.getenv_opt env_var with
  | Some s -> begin
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          Printf.eprintf
            "warning: ignoring %s=%S (expected a positive integer); using %d domains\n%!"
            env_var s
            (Domain.recommended_domain_count ());
          Domain.recommended_domain_count ()
    end
  | None -> Domain.recommended_domain_count ()

let term =
  let open Cmdliner in
  let doc =
    "Number of worker domains, the calling domain included (default: the \
     $(env) environment variable, else the recommended domain count; 1 runs \
     sequentially)."
  in
  let env = Cmd.Env.info env_var in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~env ~docv:"N" ~doc)
