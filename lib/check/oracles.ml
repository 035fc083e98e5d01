module Prng = Rpi_prng.Prng
module Asn = Rpi_bgp.Asn
module Route = Rpi_bgp.Route
module Rib = Rpi_bgp.Rib
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4
module Table_dump = Rpi_mrt.Table_dump
module Show_ip_bgp = Rpi_mrt.Show_ip_bgp
module Loader = Rpi_mrt.Loader
module Rpsl = Rpi_irr.Rpsl
module Scenario = Rpi_dataset.Scenario
module Export_infer = Rpi_core.Export_infer
module Import_infer = Rpi_core.Import_infer
module Relationship = Rpi_topo.Relationship
module Gao = Rpi_relinfer.Gao
module Engine = Rpi_sim.Engine
module Vantage = Rpi_sim.Vantage
module Atom = Rpi_sim.Atom
module Decision = Rpi_sim.Decision
module Gadget = Rpi_sim.Gadget
module Validate = Rpi_relinfer.Validate
module Runner = Rpi_runner.Runner
module Update = Rpi_bgp.Update
module Churn = Rpi_topo.Churn
module Feed = Rpi_ingest.Feed
module State = Rpi_ingest.State
module Render = Rpi_ingest.Render
module Topo_gen = Rpi_topo.Gen

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "rpicheck" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let rec json_equal a b =
  match (a, b) with
  | Rpi_json.Null, Rpi_json.Null -> true
  | Rpi_json.Bool x, Rpi_json.Bool y -> Bool.equal x y
  | Rpi_json.Int x, Rpi_json.Int y -> Int.equal x y
  | Rpi_json.Float x, Rpi_json.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Rpi_json.String x, Rpi_json.String y -> String.equal x y
  | Rpi_json.List x, Rpi_json.List y -> List.equal json_equal x y
  | Rpi_json.Obj x, Rpi_json.Obj y ->
      List.equal
        (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
        x y
  | ( ( Rpi_json.Null | Rpi_json.Bool _ | Rpi_json.Int _ | Rpi_json.Float _
      | Rpi_json.String _ | Rpi_json.List _ | Rpi_json.Obj _ ),
      _ ) ->
      false

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                               *)
(* ------------------------------------------------------------------ *)

let table_dump_roundtrip =
  Property.make ~name:"table-dump-roundtrip"
    ~gen:(fun rng -> (Gen.asn rng, Prng.int rng 1_000_000_000, Gen.rib rng))
    ~show:(fun (vantage, ts, rib) ->
      Table_dump.rib_to_string ~timestamp:ts ~vantage_as:vantage rib)
    ~check:(fun (vantage, ts, rib) ->
      let s1 = Table_dump.rib_to_string ~timestamp:ts ~vantage_as:vantage rib in
      match Table_dump.parse s1 with
      | Error e -> Error ("strict parse rejected its own serialization: " ^ e)
      | Ok entries ->
          let reserialized =
            String.concat ""
              (List.map (fun e -> Table_dump.entry_to_line e ^ "\n") entries)
          in
          if not (String.equal reserialized s1) then
            Error "entry_to_line of parsed entries differs from the original bytes"
          else begin
            match Table_dump.parse_to_rib s1 with
            | Error e -> Error e
            | Ok rib2 ->
                let s2 = Table_dump.rib_to_string ~timestamp:ts ~vantage_as:vantage rib2 in
                if String.equal s2 s1 then Ok 3
                else Error "RIB rebuild does not re-serialize byte-identically"
          end)
    ()

let show_ip_bgp_roundtrip =
  Property.make ~name:"show-ip-bgp-roundtrip" ~gen:Gen.rib ~show:Show_ip_bgp.render
    ~check:(fun rib ->
      let s1 = Show_ip_bgp.render rib in
      match Show_ip_bgp.parse s1 with
      | Error e -> Error ("parse rejected its own rendering: " ^ e)
      | Ok rib2 ->
          if Rib.route_count rib2 <> Rib.route_count rib then
            Error
              (Printf.sprintf "route count changed: %d -> %d" (Rib.route_count rib)
                 (Rib.route_count rib2))
          else if Rib.prefix_count rib2 <> Rib.prefix_count rib then
            Error "prefix count changed"
          else if String.equal (Show_ip_bgp.render rib2) s1 then Ok 3
          else Error "render |> parse |> render is not a fixpoint")
    ()

let snapshot_roundtrip =
  Property.make ~name:"snapshot-roundtrip" ~gen:Gen.tables
    ~show:(fun tables ->
      String.concat "\n"
        (List.map
           (fun (asn, rib) ->
             Printf.sprintf "AS%s:\n%s" (Asn.to_string asn)
               (Table_dump.rib_to_string ~vantage_as:asn rib))
           tables))
    ~check:(fun tables ->
      with_temp_dir (fun dir ->
          let dir1 = Filename.concat dir "first" in
          let dir2 = Filename.concat dir "second" in
          Loader.save_snapshot ~dir:dir1 tables;
          match Loader.load_snapshot ~dir:dir1 with
          | Error e -> Error ("load_snapshot failed on its own save: " ^ e)
          | Ok loaded ->
              if List.length loaded <> List.length tables then
                Error
                  (Printf.sprintf "vantage count changed: %d -> %d"
                     (List.length tables) (List.length loaded))
              else begin
                Loader.save_snapshot ~dir:dir2 loaded;
                let mismatched =
                  List.filter
                    (fun (asn, _) ->
                      let file =
                        Printf.sprintf "AS%s.dump" (Asn.to_string asn)
                      in
                      not
                        (String.equal
                           (read_file (Filename.concat dir1 file))
                           (read_file (Filename.concat dir2 file))))
                    tables
                in
                match mismatched with
                | [] -> Ok (1 + List.length tables)
                | (asn, _) :: _ ->
                    Error
                      (Printf.sprintf "AS%s.dump not byte-identical after reload"
                         (Asn.to_string asn))
              end))
    ()

let rpsl_roundtrip =
  Property.make ~name:"rpsl-roundtrip" ~gen:Gen.registry ~show:Rpsl.render_many
    ~check:(fun objs ->
      let text = Rpsl.render_many objs in
      match Rpsl.parse text with
      | Error e -> Error ("parse rejected its own rendering: " ^ e)
      | Ok objs2 ->
          if List.length objs2 <> List.length objs then
            Error
              (Printf.sprintf "object count changed: %d -> %d" (List.length objs)
                 (List.length objs2))
          else if String.equal (Rpsl.render_many objs2) text then Ok 2
          else Error "render |> parse |> render is not a fixpoint")
    ()

let detect_format_total =
  Property.make ~name:"detect-format-total" ~gen:Gen.junk_text
    ~show:(fun s -> String.escaped s)
    ~shrink:Mutate.shrink_text
    ~check:(fun text ->
      let format = Loader.detect_format text in
      (* parse_any must be total on arbitrary bytes. *)
      let (_ : (Rib.t, string) result) = Loader.parse_any text in
      let first =
        List.find_opt
          (fun l -> String.length (String.trim l) > 0)
          (String.split_on_char '\n' text)
        |> Option.map String.trim |> Option.value ~default:""
      in
      let expect_dump = String.starts_with ~prefix:"RIB|" first in
      let expect_show = String.starts_with ~prefix:"BGP" first in
      match format with
      | `Table_dump when expect_show -> Error "BGP header detected as table_dump"
      | `Show_ip_bgp when expect_dump -> Error "RIB| line detected as show_ip_bgp"
      | `Unknown when expect_dump || expect_show ->
          Error "known leader line detected as unknown"
      | `Table_dump | `Show_ip_bgp | `Unknown -> Ok 2)
    ()

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type fault_case = { original : string; mutants : string list }

let mutants_per_case = 20

let fault_property ~name ~make_original ~check_one =
  Property.make ~name
    ~gen:(fun rng ->
      let original = make_original rng in
      { original; mutants = Mutate.mutants rng ~count:mutants_per_case original })
    ~show:(fun c ->
      String.concat "\n"
        ([ "ORIGINAL:"; c.original ]
        @ List.concat_map (fun m -> [ "MUTANT:"; m ]) c.mutants))
    ~shrink:(fun c ->
      match c.mutants with
      | [ m ] -> List.map (fun m' -> { c with mutants = [ m' ] }) (Mutate.shrink_text m)
      | ms -> List.map (fun m -> { c with mutants = [ m ] }) ms)
    ~check:(fun c ->
      List.fold_left
        (fun acc m ->
          match acc with
          | Error _ -> acc
          | Ok n -> begin
              match check_one ~original:c.original m with
              | Ok k -> Ok (n + k)
              | Error e -> Error e
            end)
        (Ok 0) c.mutants)
    ()

let fault_table_dump =
  fault_property ~name:"fault-table-dump"
    ~make_original:(fun rng ->
      Table_dump.rib_to_string ~vantage_as:(Gen.asn rng) (Gen.rib rng))
    ~check_one:(fun ~original m ->
      match Table_dump.parse m with
      | exception e -> Error ("parse raised: " ^ Printexc.to_string e)
      | (_ : (Table_dump.entry list, string) result) -> begin
          match Table_dump.parse_lenient m with
          | exception e -> Error ("parse_lenient raised: " ^ Printexc.to_string e)
          | entries, _skipped ->
              let survivors = Mutate.surviving_lines ~original ~mutant:m in
              if List.length entries >= List.length survivors then Ok 2
              else
                Error
                  (Printf.sprintf "salvaged %d entries, but %d intact lines survive"
                     (List.length entries) (List.length survivors))
        end)

let fault_show_ip_bgp =
  (* Only rows that carry their own network token are position-independent;
     continuation rows legitimately die with their leader. *)
  let self_contained line =
    String.length line >= 2
    && line.[0] = '*'
    &&
    match
      String.split_on_char ' ' (String.sub line 2 (String.length line - 2))
      |> List.filter (fun t -> String.length t > 0)
    with
    | tok :: _ -> String.contains tok '/'
    | [] -> false
  in
  fault_property ~name:"fault-show-ip-bgp"
    ~make_original:(fun rng -> Show_ip_bgp.render (Gen.rib rng))
    ~check_one:(fun ~original m ->
      match Show_ip_bgp.parse m with
      | exception e -> Error ("parse raised: " ^ Printexc.to_string e)
      | (_ : (Rib.t, string) result) -> begin
          match Show_ip_bgp.parse_lenient m with
          | exception e -> Error ("parse_lenient raised: " ^ Printexc.to_string e)
          | routes, _skipped ->
              let survivors =
                Mutate.surviving_lines ~original ~mutant:m
                |> List.filter self_contained
              in
              if List.length routes >= List.length survivors then Ok 2
              else
                Error
                  (Printf.sprintf "salvaged %d routes, but %d intact rows survive"
                     (List.length routes) (List.length survivors))
        end)

(* Blank-line-delimited blocks, chunked exactly the way Rpsl.parse does. *)
let rpsl_blocks text =
  let flush chunk acc =
    let body = String.concat "\n" (List.rev chunk) in
    if String.length (String.trim body) = 0 then acc else body :: acc
  in
  let rec go chunk acc = function
    | [] -> List.rev (flush chunk acc)
    | line :: rest ->
        if String.length (String.trim line) = 0 then go [] (flush chunk acc) rest
        else go (line :: chunk) acc rest
  in
  go [] [] (String.split_on_char '\n' text)

let fault_rpsl =
  fault_property ~name:"fault-rpsl"
    ~make_original:(fun rng -> Rpsl.render_many (Gen.registry rng))
    ~check_one:(fun ~original m ->
      match Rpsl.parse m with
      | exception e -> Error ("parse raised: " ^ Printexc.to_string e)
      | (_ : (Rpsl.aut_num list, string) result) -> begin
          match Rpsl.parse_lenient m with
          | exception e -> Error ("parse_lenient raised: " ^ Printexc.to_string e)
          | objs, _errs ->
              let originals = rpsl_blocks original in
              let survivors =
                rpsl_blocks m
                |> List.filter (fun b -> List.exists (String.equal b) originals)
              in
              if List.length objs >= List.length survivors then Ok 2
              else
                Error
                  (Printf.sprintf "salvaged %d objects, but %d intact blocks survive"
                     (List.length objs) (List.length survivors))
        end)

(* ------------------------------------------------------------------ *)
(* Wire protocol and serving core                                      *)
(* ------------------------------------------------------------------ *)

module Protocol = Rpi_serve.Protocol
module Registry = Rpi_serve.Registry
module Server = Rpi_serve.Server
module As_graph = Rpi_topo.As_graph
module As_path = Rpi_bgp.As_path
module Ipv4_octets = Rpi_net.Ipv4

(* Drain [text] through the pure incremental decoder, collecting the
   frame bodies and the terminal state. *)
let decode_all text =
  let buf = Bytes.of_string text in
  let total = Bytes.length buf in
  let rec go pos acc =
    if pos >= total then (List.rev acc, `Clean_eof)
    else
      match Protocol.decode buf ~pos ~len:(total - pos) with
      | `Frame (body, used) -> go (pos + used) (body :: acc)
      | `Need_more -> (List.rev acc, `Truncated)
      | `Bad msg -> (List.rev acc, `Bad msg)
  in
  go 0 []

(* The same bytes through the blocking reader, via a pipe.  Callers
   guard the size: the whole text is written before any read, so it
   must stay under the pipe buffer. *)
let read_frame_all text =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close rd)
    (fun () ->
      let len = String.length text in
      let n = Unix.write_substring wr text 0 len in
      Unix.close wr;
      if n <> len then failwith "short pipe write";
      let rec go acc =
        match Protocol.read_frame rd with
        | Ok (Some body) -> go (body :: acc)
        | Ok None -> (List.rev acc, `Clean_eof)
        | Error msg -> (List.rev acc, `Err msg)
      in
      go [])

(* Mutated wire frames must fail cleanly and identically on both decode
   paths: the pure incremental decoder the event loop uses and the
   blocking [read_frame] the CLI client uses mirror each other\'s
   validation byte for byte, never raise, and never hand back a body
   over [Protocol.max_frame] — so an adversarial length prefix cannot
   force a large allocation. *)
let fault_wire_frame =
  fault_property ~name:"fault-wire-frame"
    ~make_original:(fun rng ->
      let n = Prng.int_in rng 2 5 in
      let bodies =
        List.init n (fun _ ->
            match Prng.int rng 4 with
            | 0 -> Rpi_json.to_string (Protocol.request_to_json Protocol.Stats)
            | 1 -> Rpi_json.to_string (Protocol.request_to_json Protocol.Snapshot)
            | 2 ->
                Rpi_json.to_string
                  (Protocol.request_to_json (Protocol.Import_pref (Gen.asn rng)))
            | _ ->
                Rpi_json.to_string
                  (Protocol.request_to_json
                     (Protocol.Sa_status
                        { asn = Gen.asn rng; prefix = Some (Gen.prefix rng) })))
      in
      String.concat "" (List.map Protocol.frame_of_body bodies))
    ~check_one:(fun ~original:_ m ->
      match decode_all m with
      | exception e -> Error ("decode raised: " ^ Printexc.to_string e)
      | frames, terminal ->
          if
            List.exists (fun b -> String.length b > Protocol.max_frame) frames
          then Error "decode produced a body over max_frame"
          else if String.length m > 60_000 then
            (* Too big for a single pipe write; the pure-decoder checks
               above already ran. *)
            Ok (1 + List.length frames)
          else begin
            match read_frame_all m with
            | exception e -> Error ("read_frame raised: " ^ Printexc.to_string e)
            | frames', terminal' ->
                if not (List.equal String.equal frames frames') then
                  Error
                    (Printf.sprintf
                       "decoders disagree: decode recovered %d frames, \
                        read_frame %d"
                       (List.length frames) (List.length frames'))
                else begin
                  match (terminal, terminal') with
                  | `Clean_eof, `Clean_eof -> Ok (2 + List.length frames)
                  (* A frame truncated by the mutation: the incremental
                     decoder waits for more bytes, the blocking reader
                     sees EOF mid-frame and errors. *)
                  | `Truncated, `Err _ -> Ok (2 + List.length frames)
                  | `Bad a, `Err b when String.equal a b ->
                      Ok (2 + List.length frames)
                  | `Bad a, `Err b ->
                      Error
                        (Printf.sprintf "error strings diverge: %S vs %S" a b)
                  | `Clean_eof, `Err e ->
                      Error ("read_frame errored at clean EOF: " ^ e)
                  | (`Truncated | `Bad _), `Clean_eof ->
                      Error "read_frame saw clean EOF where decode did not"
                end
          end)

(* A small deterministic serving fixture shared by every case: the
   server starts lazily on first use and is torn down at exit. *)
let serve_vantage = Asn.of_int 100

let serve_prefixes =
  [ "10.11.0.0/16"; "10.12.0.0/16"; "40.0.0.0/8"; "203.0.113.0/24" ]

let serve_registry () =
  let a = Asn.of_int in
  let p s = Rpi_net.Prefix.of_string_exn s in
  let g = As_graph.empty in
  let g = As_graph.add_p2c g ~provider:serve_vantage ~customer:(a 10) in
  let g = As_graph.add_p2c g ~provider:(a 10) ~customer:(a 11) in
  let g = As_graph.add_p2p g serve_vantage (a 20) in
  let g = As_graph.add_p2c g ~provider:(a 30) ~customer:serve_vantage in
  let g = As_graph.add_p2c g ~provider:(a 20) ~customer:(a 11) in
  let route ~lp ~peer ~rid path prefix =
    Route.make ~prefix ~next_hop:(Ipv4_octets.of_octets 192 0 2 rid)
      ~as_path:(As_path.of_list (List.map a path))
      ~local_pref:lp
      ~router_id:(Ipv4_octets.of_octets 192 0 2 rid)
      ~peer_as:(a peer) ()
  in
  let rib =
    Rib.of_routes
      [
        route ~lp:120 ~peer:10 ~rid:1 [ 10; 11 ] (p "10.11.0.0/16");
        route ~lp:90 ~peer:20 ~rid:2 [ 20; 11 ] (p "10.12.0.0/16");
        route ~lp:80 ~peer:30 ~rid:3 [ 30; 40 ] (p "40.0.0.0/8");
      ]
  in
  let state = State.create ~graph:g ~vantage:serve_vantage ~initial:rib () in
  Registry.create ~collector:state ~vantages:[ (serve_vantage, state) ]

let serve_fixture =
  lazy
    (let registry = serve_registry () in
     let path =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "rpicheck-serve-%d.sock" (Unix.getpid ()))
     in
     let address = Server.Unix_socket path in
     let server = Server.create ~address registry in
     let domain = Domain.spawn (fun () -> Server.serve ~jobs:1 server) in
     at_exit (fun () ->
         Server.shutdown server;
         Domain.join domain;
         Server.close server);
     address)

(* Every verb except [Metrics], whose counters move between cases. *)
let gen_serve_request rng =
  match Prng.int rng 6 with
  | 0 -> Protocol.Stats
  | 1 -> Protocol.Snapshot
  | 2 -> Protocol.Import_pref serve_vantage
  | 3 -> Protocol.Sa_status { asn = serve_vantage; prefix = None }
  | 4 ->
      Protocol.Sa_status
        {
          asn = serve_vantage;
          prefix =
            Some
              (Rpi_net.Prefix.of_string_exn (Prng.choice_list rng serve_prefixes));
        }
  | _ ->
      (* Unknown vantage: the error response must pipeline too. *)
      Protocol.Sa_status { asn = Asn.of_int 999; prefix = None }

let show_serve_requests reqs =
  String.concat "\n"
    (List.map
       (fun r -> Rpi_json.to_string (Protocol.request_to_json r))
       reqs)

let shrink_serve_requests = function
  | [] | [ _ ] -> []
  | reqs -> List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) reqs) reqs

(* Pipelining is transparent: writing every request up front on one
   connection yields byte-identical responses, in order, to opening a
   fresh connection per request. *)
let pipelined_matches_serial =
  Property.make ~name:"pipelined-matches-serial"
    ~gen:(fun rng ->
      let n = Prng.int_in rng 1 12 in
      List.init n (fun _ -> gen_serve_request rng))
    ~show:show_serve_requests ~shrink:shrink_serve_requests
    ~check:(fun reqs ->
      let address = Lazy.force serve_fixture in
      let serial =
        List.map
          (fun r ->
            match Server.query address r with
            | Ok json -> Ok (Rpi_json.to_string json)
            | Error e -> Error ("serial query: " ^ e))
          reqs
      in
      match List.find_opt Result.is_error serial with
      | Some (Error e) -> Error e
      | Some (Ok _) -> assert false
      | None ->
          let serial = List.filter_map Result.to_option serial in
          let fd = Server.connect address in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              List.iter
                (fun r -> Protocol.write_json fd (Protocol.request_to_json r))
                reqs;
              let pipelined =
                List.map
                  (fun _ ->
                    match Protocol.read_json fd with
                    | Ok (Some json) -> Ok (Rpi_json.to_string json)
                    | Ok None -> Error "pipelined: connection closed early"
                    | Error e -> Error ("pipelined read: " ^ e))
                  reqs
              in
              match List.find_opt Result.is_error pipelined with
              | Some (Error e) -> Error e
              | Some (Ok _) -> assert false
              | None ->
                  let pipelined = List.filter_map Result.to_option pipelined in
                  let rec diff_at i = function
                    | [], [] -> Ok i
                    | s :: srest, q :: qrest ->
                        if String.equal s q then diff_at (i + 1) (srest, qrest)
                        else
                          Error
                            (Printf.sprintf
                               "response %d differs: serial %s, pipelined %s" i
                               s q)
                    | _ -> Error "response count mismatch"
                  in
                  diff_at 0 (serial, pipelined)))
    ()

(* ------------------------------------------------------------------ *)
(* JSON / NDJSON                                                       *)
(* ------------------------------------------------------------------ *)

let shrink_json t =
  let drop_each l rebuild =
    List.mapi (fun i _ -> rebuild (List.filteri (fun j _ -> j <> i) l)) l
  in
  match t with
  | Rpi_json.List l ->
      (Rpi_json.Null :: drop_each l (fun l -> Rpi_json.List l)) @ l
  | Rpi_json.Obj kvs ->
      (Rpi_json.Null :: drop_each kvs (fun kvs -> Rpi_json.Obj kvs)) @ List.map snd kvs
  | Rpi_json.String s when String.length s > 0 ->
      [ Rpi_json.String (String.sub s 0 (String.length s / 2)) ]
  | _ -> []

let json_roundtrip =
  Property.make ~name:"json-roundtrip" ~gen:Gen.json ~show:Rpi_json.to_string
    ~shrink:shrink_json
    ~check:(fun t ->
      let s = Rpi_json.to_string t in
      match Rpi_json.of_string s with
      | Error e -> Error ("serialized tree does not parse: " ^ e)
      | Ok t2 ->
          if not (json_equal t t2) then Error "parsed tree differs"
          else if String.equal (Rpi_json.to_string t2) s then Ok 2
          else Error "reserialization differs")
    ()

let runner_ndjson_roundtrip =
  Property.make ~name:"runner-ndjson-roundtrip" ~gen:Gen.outcome
    ~show:(fun o -> Rpi_json.to_string (Runner.outcome_to_json o))
    ~check:(fun o ->
      let line = Rpi_json.to_string (Runner.outcome_to_json o) in
      match Rpi_json.of_string line with
      | Error e -> Error ("runner NDJSON does not parse back: " ^ e)
      | Ok parsed ->
          if String.equal (Rpi_json.to_string parsed) line then Ok 2
          else Error "NDJSON line does not reserialize identically")
    ()

(* ------------------------------------------------------------------ *)
(* Scenario-backed metamorphic oracles                                 *)
(* ------------------------------------------------------------------ *)

(* Well below the accuracy EXPERIMENTS.md records for the full scenario
   (95-98%): the pocket topology compresses degrees so Gao's degree-based
   tie-breaks have less signal, and measured accuracy across seeds lands
   in the 0.80-0.89 band.  The floor catches algorithmic regressions
   (a broken heuristic drops towards the ~0.4 majority-class baseline),
   not statistical jitter. *)
let gao_accuracy_floor = 0.75

let asn_set_show asns =
  "{" ^ String.concat "," (List.map Asn.to_string asns) ^ "}"

let scenario_properties ~seed =
  let scen = lazy (Scenario.build ~config:(Gen.pocket_config ~seed) ()) in
  let paths = lazy (Scenario.observed_paths (Lazy.force scen)) in
  let gao_config =
    { Gao.default_config with Gao.peer_degree_ratio = 6.0 }
  in
  let inferred = lazy (Gao.infer ~config:gao_config (Lazy.force paths)) in
  let sa_subset_monotone =
    Property.make ~name:"sa-subset-monotone"
      ~gen:(fun rng ->
        let t = Lazy.force scen in
        let peers = t.Scenario.collector_peers in
        let provider = Prng.choice_list rng peers in
        let others = List.filter (fun a -> not (Asn.equal a provider)) peers in
        let subset = provider :: Prng.sample rng (Prng.int rng (List.length others + 1)) others in
        (provider, subset))
      ~show:(fun (provider, subset) ->
        Printf.sprintf "provider=AS%s feed-subset=%s" (Asn.to_string provider)
          (asn_set_show subset))
      ~shrink:(fun (provider, subset) ->
        subset
        |> List.filter (fun a -> not (Asn.equal a provider))
        |> List.map (fun drop ->
               (provider, List.filter (fun a -> not (Asn.equal a drop)) subset)))
      ~check:(fun (provider, subset) ->
        let t = Lazy.force scen in
        let full = t.Scenario.collector in
        let in_subset a = List.exists (Asn.equal a) subset in
        let sub =
          Rib.of_routes
            (List.filter
               (fun (r : Route.t) ->
                 match r.Route.peer_as with
                 | Some p -> in_subset p
                 | None -> false)
               (Rib.all_routes full))
        in
        let sa_keys rib =
          let origins = Export_infer.origins_of_rib rib in
          let view = Export_infer.viewpoint_of_feed ~feed:provider rib in
          let report =
            Export_infer.analyze t.Scenario.graph ~provider ~origins view
          in
          List.map
            (fun (r : Export_infer.sa_record) ->
              Prefix.to_string r.Export_infer.prefix ^ "@AS"
              ^ Asn.to_string r.Export_infer.origin)
            report.Export_infer.sa
        in
        let sa_sub = sa_keys sub in
        let sa_full = sa_keys full in
        let escaped =
          List.filter (fun k -> not (List.exists (String.equal k) sa_full)) sa_sub
        in
        match escaped with
        | [] -> Ok (1 + List.length sa_sub)
        | k :: _ ->
            Error
              (Printf.sprintf
                 "SA prefix %s inferred from the feed subset but not from the full \
                  collector (monotonicity violated)"
                 k))
      ()
  in
  let import_renumber_invariant =
    Property.make ~name:"import-renumber-invariant"
      ~gen:(fun rng ->
        let t = Lazy.force scen in
        (Prng.choice_list rng t.Scenario.lg_ases, Prng.int_in rng 1 0x3FFFFFFF))
      ~show:(fun (vantage, key) ->
        Printf.sprintf "vantage=AS%s xor-key=%#x" (Asn.to_string vantage) key)
      ~shrink:(fun (vantage, key) ->
        if key > 1 then [ (vantage, key / 2); (vantage, key land (key - 1)) ] else [])
      ~check:(fun (vantage, key) ->
        let t = Lazy.force scen in
        let rib =
          match Scenario.lg_table t vantage with
          | Some rib -> rib
          | None -> Rib.empty
        in
        let renumber p =
          let len = Prefix.length p in
          let mask = (-1) lsl (32 - len) land 0xFFFFFFFF in
          let network = Ipv4.to_int (Prefix.network p) in
          Prefix.make (Ipv4.of_int32_exn (network lxor (key land mask))) len
        in
        let rib' =
          Rib.of_routes
            (List.map
               (fun (r : Route.t) -> { r with Route.prefix = renumber r.Route.prefix })
               (Rib.all_routes rib))
        in
        let a = Import_infer.analyze t.Scenario.graph ~vantage rib in
        let b = Import_infer.analyze t.Scenario.graph ~vantage rib' in
        let class_values_equal =
          List.equal
            (fun (r1, vs1) (r2, vs2) ->
              Relationship.equal r1 r2 && List.equal Int.equal vs1 vs2)
            a.Import_infer.class_values b.Import_infer.class_values
        in
        if a.Import_infer.prefixes_total <> b.Import_infer.prefixes_total then
          Error "prefixes_total changed under renumbering"
        else if a.Import_infer.prefixes_compared <> b.Import_infer.prefixes_compared
        then Error "prefixes_compared changed under renumbering"
        else if a.Import_infer.typical <> b.Import_infer.typical then
          Error "typical count changed under renumbering"
        else if a.Import_infer.atypical <> b.Import_infer.atypical then
          Error "atypical count changed under renumbering"
        else if not (Float.equal a.Import_infer.pct_typical b.Import_infer.pct_typical)
        then Error "pct_typical changed under renumbering"
        else if not class_values_equal then
          Error "per-class local-pref values changed under renumbering"
        else Ok 6)
      ()
  in
  let gao_permutation_invariant =
    Property.make ~name:"gao-permutation-invariant"
      ~gen:(fun rng -> Prng.shuffle_list rng (Lazy.force paths))
      ~show:(fun shuffled -> Printf.sprintf "permutation of %d paths" (List.length shuffled))
      ~check:(fun shuffled ->
        let base = Lazy.force inferred in
        let permuted = Gao.infer ~config:gao_config shuffled in
        let report = Validate.compare_graphs ~truth:base ~inferred:permuted in
        if
          report.Validate.missing = 0
          && report.Validate.extra = 0
          && report.Validate.edges_correct = report.Validate.edges_compared
        then Ok 3
        else
          Error
            (Printf.sprintf
               "inference depends on path order: %d/%d labels agree, %d missing, %d \
                extra edges"
               report.Validate.edges_correct report.Validate.edges_compared
               report.Validate.missing report.Validate.extra))
      ()
  in
  let gao_ground_truth =
    let accuracy =
      lazy
        (let t = Lazy.force scen in
         Validate.accuracy
           (Validate.compare_graphs ~truth:t.Scenario.graph
              ~inferred:(Lazy.force inferred)))
    in
    Property.make ~name:"gao-ground-truth-agreement"
      ~gen:(fun (_ : Prng.t) -> ())
      ~show:(fun () -> "ground-truth comparison on the pocket scenario")
      ~check:(fun () ->
        let acc = Lazy.force accuracy in
        if acc >= gao_accuracy_floor then Ok 1
        else
          Error
            (Printf.sprintf "relationship accuracy %.3f below the %.2f floor" acc
               gao_accuracy_floor))
      ()
  in
  let incremental_matches_batch =
    (* The tentpole invariant of the ingest subsystem: after ANY update
       interleaving — including duplicate announces and spurious withdraws,
       which must be no-ops — the incremental state's stats, SA and import
       NDJSON is byte-identical to a from-scratch batch recompute over the
       same table.  A third of the cases replay a Looking-Glass table, the
       only views that carry local preference, so the import report
       compares prefixes there (a collector feed's is empty). *)
    let js = Rpi_json.to_string in
    let announce_of_route vantage (r : Route.t) =
      let from_as = Option.value ~default:vantage r.Route.peer_as in
      Update.announce ~from_as ~to_as:vantage r
    in
    Property.make ~name:"incremental_matches_batch"
      ~gen:(fun rng ->
        let t = Lazy.force scen in
        let vantage, view =
          match t.Scenario.lg_tables with
          | _ :: _ as lg when Prng.int rng 3 = 0 -> Prng.choice_list rng lg
          | _ ->
              let vantage = Prng.choice_list rng t.Scenario.collector_peers in
              (vantage, Export_infer.viewpoint_of_feed ~feed:vantage t.Scenario.collector)
        in
        let base = Feed.diff ~vantage ~old_rib:Rib.empty view in
        let keep = List.filter (fun _ -> Prng.int rng 4 > 0) base in
        let withdraw_of (u : Update.t) =
          Update.withdraw ~from_as:u.Update.from_as ~to_as:u.Update.to_as
            (Update.prefix u)
        in
        let withdraws =
          List.filter_map
            (fun u -> if Prng.int rng 3 = 0 then Some (withdraw_of u) else None)
            keep
        in
        (* Fault injection: exact duplicates of live announces, and
           withdraws from a session that never announced the prefix. *)
        let duplicates = List.filter (fun _ -> Prng.int rng 5 = 0) keep in
        let spurious =
          List.filter_map
            (fun (u : Update.t) ->
              if Prng.int rng 5 = 0 then
                Some
                  (Update.withdraw ~from_as:(Asn.of_int 65533) ~to_as:vantage
                     (Update.prefix u))
              else None)
            base
        in
        let updates =
          Prng.shuffle_list rng (keep @ withdraws @ duplicates @ spurious)
        in
        (vantage, updates))
      ~show:(fun (vantage, updates) ->
        Printf.sprintf "vantage=AS%s\n%s" (Asn.to_string vantage)
          (Feed.render_stream updates))
      ~shrink:(fun (vantage, updates) ->
        List.mapi
          (fun i _ -> (vantage, List.filteri (fun j _ -> j <> i) updates))
          updates)
      ~check:(fun (vantage, updates) ->
        let t = Lazy.force scen in
        let graph = t.Scenario.graph in
        let state = State.create ~graph ~vantage () in
        State.apply_all state updates;
        let batch_rib = Feed.apply_all ~vantage updates Rib.empty in
        let compare_reports tag =
          let stats_inc = js (Render.stats_of_state state) in
          let stats_batch = js (Render.stats_of_rib batch_rib) in
          if not (String.equal stats_inc stats_batch) then
            Error
              (Printf.sprintf "%s: stats diverge\nincremental: %s\nbatch:       %s"
                 tag stats_inc stats_batch)
          else begin
            let report =
              Export_infer.analyze graph ~provider:vantage
                ~origins:(Export_infer.origins_of_rib batch_rib)
                batch_rib
            in
            let sa_inc = js (Render.sa ~viewpoint:"live" (State.sa_report state)) in
            let sa_batch = js (Render.sa ~viewpoint:"live" report) in
            let import_inc = js (Render.import_pref (State.import_report state)) in
            let import_batch =
              js (Render.import_pref (Import_infer.analyze graph ~vantage batch_rib))
            in
            if not (String.equal sa_inc sa_batch) then
              Error (Printf.sprintf "%s: sa reports diverge" tag)
            else if not (String.equal import_inc import_batch) then
              Error
                (Printf.sprintf
                   "%s: import reports diverge\nincremental: %s\nbatch:       %s"
                   tag import_inc import_batch)
            else Ok 3
          end
        in
        if not (Rib.equal (State.rib state) batch_rib) then
          Error "incremental table diverges from Feed.apply_all fold"
        else begin
          match compare_reports "after interleaving" with
          | Error _ as e -> e
          | Ok n -> begin
              (* Idempotence at the fixed point: re-announcing a live route
                 and withdrawing from an absent session must change
                 nothing. *)
              let faults =
                (match Rib.prefixes batch_rib with
                | [] -> []
                | prefix :: _ -> begin
                    match Rib.candidates batch_rib prefix with
                    | r :: _ -> [ announce_of_route vantage r ]
                    | [] -> []
                  end)
                @
                match Rib.prefixes batch_rib with
                | [] -> []
                | prefix :: _ ->
                    [
                      Update.withdraw ~from_as:(Asn.of_int 65533) ~to_as:vantage
                        prefix;
                    ]
              in
              State.apply_all state faults;
              if not (Rib.equal (State.rib state) batch_rib) then
                Error "fault replay changed the table (not idempotent)"
              else begin
                match compare_reports "after fault replay" with
                | Error _ as e -> e
                | Ok m -> Ok (n + m + 2)
              end
            end
        end)
      ()
  in
  (* Byte-level equality of engine results — convergence trace included —
     shared by the solver-differential properties below. *)
  let engine_route_equal (a : Engine.route) (b : Engine.route) =
    a.Engine.lp = b.Engine.lp
    && a.Engine.path_len = b.Engine.path_len
    && a.Engine.no_up = b.Engine.no_up
    && Option.equal Asn.equal a.Engine.learned_from b.Engine.learned_from
    && Option.equal Relationship.equal a.Engine.rel b.Engine.rel
    && Option.equal Relationship.equal a.Engine.export_class b.Engine.export_class
    && List.equal Asn.equal a.Engine.path b.Engine.path
  in
  let engine_table_equal (a : Engine.table) (b : Engine.table) =
    Option.equal engine_route_equal a.Engine.best b.Engine.best
    && List.equal engine_route_equal a.Engine.candidates b.Engine.candidates
  in
  let result_equal (a : Engine.result) (b : Engine.result) =
    a.Engine.converged = b.Engine.converged
    && a.Engine.steps = b.Engine.steps
    && Asn.Map.equal engine_table_equal a.Engine.tables b.Engine.tables
  in
  let interned_engine_matches_reference =
    (* The production solver runs on interned paths and flat index arenas;
       this pins it to the retained list-of-routes reference solver —
       identical tables, identical convergence trace — and propagate_all
       to its jobs=1 merge for every domain count. *)
    Property.make ~name:"interned_engine_matches_reference"
      ~gen:(fun rng ->
        let t = Lazy.force scen in
        let atoms = Array.of_list t.Scenario.atoms in
        let n = Array.length atoms in
        let start = Prng.int rng n in
        let len = 1 + Prng.int rng (min 6 n) in
        List.init len (fun k -> atoms.((start + k) mod n)))
      ~show:(fun batch ->
        Printf.sprintf "atoms [%s]"
          (String.concat ";"
             (List.map (fun (a : Atom.t) -> string_of_int a.Atom.id) batch)))
      ~shrink:(fun batch ->
        match batch with
        | [] | [ _ ] -> []
        | _ -> List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) batch) batch)
      ~check:(fun batch ->
        let t = Lazy.force scen in
        let net = t.Scenario.network in
        let retain = t.Scenario.retain in
        let mismatches =
          List.filter
            (fun (a : Atom.t) ->
              let fast = Engine.propagate net ~retain a in
              let ref_ = Engine.propagate_reference net ~retain a in
              not (result_equal fast ref_))
            batch
        in
        match mismatches with
        | a :: _ ->
            Error
              (Printf.sprintf
                 "interned solver diverges from the reference on atom %d" a.Atom.id)
        | [] ->
            let runs =
              List.map
                (fun jobs -> Engine.propagate_all net ~retain ~jobs batch)
                [ 1; 2; 4 ]
            in
            let all_equal =
              match runs with
              | base :: rest ->
                  List.for_all (fun r -> List.equal result_equal base r) rest
              | [] -> true
            in
            if all_equal then Ok (2 * List.length batch)
            else Error "propagate_all result depends on the jobs count")
      ()
  in
  let decision_vanilla_matches_reference =
    (* The solver's unspecialised branch — [prefer] and [export_ok]
       called through the module — must make exactly the decisions of its
       vanilla-specialised branch and of the reference solver.  The
       solver specialises by module name, so a renamed copy of Vanilla
       takes the unspecialised branch. *)
    let generic : Decision.t =
      (module struct
        let name = "vanilla/generic"
        let granularity = Decision.Per_as
        let prefer = Decision.Vanilla.prefer
        let export_ok = Decision.Vanilla.export_ok
      end)
    in
    Property.make ~name:"decision_vanilla_matches_reference"
      ~gen:(fun rng ->
        let t = Lazy.force scen in
        let atoms = Array.of_list t.Scenario.atoms in
        let n = Array.length atoms in
        let start = Prng.int rng n in
        let len = 1 + Prng.int rng (min 4 n) in
        List.init len (fun k -> atoms.((start + k) mod n)))
      ~show:(fun batch ->
        Printf.sprintf "atoms [%s]"
          (String.concat ";"
             (List.map (fun (a : Atom.t) -> string_of_int a.Atom.id) batch)))
      ~shrink:(fun batch ->
        match batch with
        | [] | [ _ ] -> []
        | _ -> List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) batch) batch)
      ~check:(fun batch ->
        let t = Lazy.force scen in
        let net = t.Scenario.network in
        let retain = t.Scenario.retain in
        let bad =
          List.filter
            (fun (a : Atom.t) ->
              let fast = Engine.propagate net ~retain a in
              let plug = Engine.propagate net ~retain ~decision:generic a in
              let ref_ = Engine.propagate_reference net ~retain a in
              not (result_equal fast plug && result_equal plug ref_))
            batch
        in
        match bad with
        | a :: _ ->
            Error
              (Printf.sprintf
                 "unspecialised vanilla diverges from specialised/reference on atom %d"
                 a.Atom.id)
        | [] -> Ok (3 * List.length batch))
      ()
  in
  let ns_bgp_converges_on_gadget =
    (* BAD GADGET has no stable state under per-AS selection, so the
       vanilla solver runs into its step cap; NS-BGP converges on the
       same configuration, because what each rim AS exports to its peers
       — its customer route, the only one the valley-free discipline
       lets out — no longer depends on the route it currently prefers
       for itself. *)
    Property.make ~name:"ns_bgp_converges_on_gadget"
      ~gen:(fun rng ->
        let o = 64000 + Prng.int rng 900 in
        let a = o + 1 + Prng.int rng 20 in
        let b = a + 1 + Prng.int rng 20 in
        let c = b + 1 + Prng.int rng 20 in
        (o, a, b, c, 111 + Prng.int rng 40))
      ~show:(fun (o, a, b, c, pref) ->
        Printf.sprintf "origin AS%d rim AS%d/AS%d/AS%d pref %d" o a b c pref)
      ~check:(fun (o, a, b, c, pref) ->
        let origin = Asn.of_int o in
        let a1 = Asn.of_int a and a2 = Asn.of_int b and a3 = Asn.of_int c in
        let graph, import =
          Gadget.bad_gadget ~origin ~rim:(a1, a2, a3) ~pref_rim:pref ()
        in
        let network = Engine.prepare ~graph ~import () in
        let retain = Asn.Set.of_list (Rpi_topo.As_graph.ases graph) in
        let atom =
          Atom.vanilla ~id:0 ~origin [ Prefix.make (Ipv4.of_octets 10 9 9 0) 24 ]
        in
        let vanilla = Engine.propagate network ~retain atom in
        let ns =
          Engine.propagate network ~retain ~decision:Decision.neighbor_specific atom
        in
        if vanilla.Engine.converged then
          Error "vanilla BGP converged on BAD GADGET (expected oscillation)"
        else if not ns.Engine.converged then
          Error "NS-BGP failed to converge on BAD GADGET"
        else begin
          (* The NS fixed point is the wheel every AS wanted: each rim AS
             settles on the route relayed by its preferred peer. *)
          let bad =
            List.filter
              (fun (holder, preferred) ->
                match Engine.best_at ns holder with
                | Some r ->
                    not
                      (Option.equal Asn.equal r.Engine.learned_from (Some preferred)
                      && r.Engine.lp = pref)
                | None -> true)
              [ (a1, a2); (a2, a3); (a3, a1) ]
          in
          match bad with
          | [] -> Ok 2
          | _ :: _ -> Error "NS-BGP fixed point is not the preferred-peer wheel"
        end)
      ()
  in
  (* --- incremental repropagation battery ------------------------------ *)
  (* Typical-preference pocket scenario for the repropagation properties:
     with the atypical/override minorities zeroed, every import policy is
     Gao–Rexford typical, the provider hierarchy is acyclic (and the churn
     generator keeps it that way), so the stable routing state is unique —
     "incremental == batch, byte-for-byte" is a theorem here, not an
     accident of visit order. *)
  let typical =
    lazy
      (Scenario.build
         ~config:
           {
             (Gen.pocket_config ~seed) with
             Scenario.p_atypical_neighbor = 0.0;
             p_atypical_prefix = 0.0;
             p_prefix_override = 0.0;
           }
         ())
  in
  (* Full-result equality minus [steps]: the incremental solver re-solves
     only the dirty cone, so its worklist-pop count legitimately differs
     from a from-scratch batch run; everything observable — candidate
     sets, their order, bests, convergence — must match. *)
  let result_equal_modulo_steps (a : Engine.result) (b : Engine.result) =
    a.Engine.converged = b.Engine.converged
    && Atom.equal a.Engine.atom b.Engine.atom
    && Asn.Map.equal engine_table_equal a.Engine.tables b.Engine.tables
  in
  let decision_of_name name =
    if String.equal name "neighbor-specific" then Decision.neighbor_specific
    else Decision.vanilla
  in
  let pick_decision_name rng =
    if Prng.bool rng then "vanilla" else "neighbor-specific"
  in
  let pick_atoms rng t k =
    let atoms = Array.of_list t.Scenario.atoms in
    let n = Array.length atoms in
    let start = Prng.int rng n in
    List.init (min k n) (fun i -> atoms.((start + i) mod n))
  in
  (* A random applicable delta sequence: topology/announcement churn from
     the seeded generator, plus lp-override edits restricted to links the
     stream's relationship migrations leave alone — so each override value
     can be drawn inside the neighbour's (final) class band and the
     policies stay typical end to end. *)
  let gen_deltas rng t (atoms : Atom.t list) =
    let atom_ids = List.map (fun (a : Atom.t) -> a.Atom.id) atoms in
    let cfg =
      {
        Churn.p_flap = 0.6;
        p_rel_change = 0.5;
        p_withdraw = 0.4;
        max_down_epochs = 3;
        max_out_epochs = 3;
      }
    in
    let stream =
      Churn.generate ~config:cfg rng ~graph:t.Scenario.graph ~atom_ids
        ~epochs:(2 + Prng.int rng 5)
    in
    let events = List.concat_map (fun (e : Churn.epoch) -> e.Churn.events) stream in
    let atom_of id = List.find (fun (a : Atom.t) -> a.Atom.id = id) atoms in
    let churn_deltas = List.map (Engine.Delta.of_event ~atom_of) events in
    let migrated a b =
      List.exists
        (function
          | Churn.Rel_change (x, y, _) ->
              (Asn.equal x a && Asn.equal y b) || (Asn.equal x b && Asn.equal y a)
          | _ -> false)
        events
    in
    let graph = t.Scenario.graph in
    let ases = Array.of_list (Rpi_topo.As_graph.ases graph) in
    let lp_deltas =
      List.concat_map
        (fun (atom : Atom.t) ->
          if not (Prng.chance rng 0.7) then []
          else begin
            let holder = Prng.choice rng ases in
            let candidates =
              Rpi_topo.As_graph.neighbors graph holder
              |> List.filter (fun (nb, rel) ->
                     (not (Relationship.equal rel Relationship.Sibling))
                     && not (migrated holder nb))
            in
            match candidates with
            | [] -> []
            | _ :: _ ->
                let nb, rel = Prng.choice_list rng candidates in
                (* Stay inside the class band (customer > peer > provider)
                   so the override never makes the policy atypical. *)
                let lp =
                  match rel with
                  | Relationship.Customer -> Prng.int_in rng 104 118
                  | Relationship.Peer -> Prng.int_in rng 96 103
                  | Relationship.Provider -> Prng.int_in rng 82 94
                  | Relationship.Sibling -> 100 (* unreachable: filtered *)
                in
                [
                  Engine.Delta.Lp_set
                    { atom_id = atom.Atom.id; holder; neighbor = nb; lp };
                ]
          end)
        atoms
    in
    churn_deltas @ lp_deltas
  in
  let show_case (dname, atoms, deltas) =
    Printf.sprintf "%s atoms [%s] deltas [%s]" dname
      (String.concat ";"
         (List.map (fun (a : Atom.t) -> string_of_int a.Atom.id) atoms))
      (String.concat "; " (List.map Engine.Delta.render deltas))
  in
  let announce_all atoms = List.map (fun a -> Engine.Delta.Announce a) atoms in
  let lp_quads_of deltas =
    List.filter_map
      (function
        | Engine.Delta.Lp_set { atom_id; holder; neighbor; lp } ->
            Some (atom_id, holder, neighbor, lp)
        | _ -> None)
      deltas
  in
  (* Fresh batch network equivalent to the state's current overlay. *)
  let batch_network t st deltas =
    Engine.prepare
      ~graph:(Engine.state_graph st)
      ~import:(Scenario.import_of t)
      ~transit_scope:(Scenario.transit_scope_of t)
      ~lp_overrides:(Scenario.lp_override_quads t @ lp_quads_of deltas)
      ()
  in
  let repropagate_matches_batch =
    Property.make ~name:"repropagate_matches_batch"
      ~gen:(fun rng ->
        let t = Lazy.force typical in
        let atoms = pick_atoms rng t (1 + Prng.int rng 3) in
        let deltas = gen_deltas rng t atoms in
        (pick_decision_name rng, atoms, deltas))
      ~show:show_case
      ~shrink:(fun (dname, atoms, deltas) ->
        match deltas with
        | [] | [ _ ] -> []
        | _ ->
            List.mapi
              (fun i _ -> (dname, atoms, List.filteri (fun j _ -> j <> i) deltas))
              deltas)
      ~check:(fun (dname, atoms, deltas) ->
        let t = Lazy.force typical in
        let net = t.Scenario.network in
        let retain = t.Scenario.retain in
        let decision = decision_of_name dname in
        let st = Engine.init_state ~decision net in
        let (_ : Engine.state) = Engine.repropagate net st (announce_all atoms) in
        let inc0 = Engine.state_results st ~retain in
        let batch0 =
          Engine.propagate_all net ~retain ~decision (Engine.state_atoms st)
        in
        if not (List.equal result_equal_modulo_steps inc0 batch0) then
          Error "announce-from-scratch state diverges from batch propagate"
        else begin
          (* Apply the sequence in two chunks: repropagate must compose
             across calls, not just within one. *)
          let n_deltas = List.length deltas in
          let split_at =
            if n_deltas < 2 then n_deltas else n_deltas / 2
          in
          let chunk1 = List.filteri (fun i _ -> i < split_at) deltas in
          let chunk2 = List.filteri (fun i _ -> i >= split_at) deltas in
          let (_ : Engine.state) = Engine.repropagate net st chunk1 in
          let (_ : Engine.state) = Engine.repropagate net st chunk2 in
          let net' = batch_network t st deltas in
          let batch =
            Engine.propagate_all net' ~retain ~decision (Engine.state_atoms st)
          in
          let inc = Engine.state_results st ~retain in
          if List.equal result_equal_modulo_steps inc batch then
            Ok (2 + List.length deltas)
          else
            Error
              "repropagated state diverges from a fresh batch solve of the \
               modified network"
        end)
      ()
  in
  let repropagate_idempotent_on_noop =
    Property.make ~name:"repropagate_idempotent_on_noop"
      ~gen:(fun rng ->
        let t = Lazy.force typical in
        let atoms = pick_atoms rng t (1 + Prng.int rng 2) in
        let edges =
          Rpi_topo.As_graph.fold_edges (fun a b rel acc -> (a, b, rel) :: acc)
            t.Scenario.graph []
          |> Array.of_list
        in
        let a, b, rel = Prng.choice rng edges in
        let atom = List.nth atoms (Prng.int rng (List.length atoms)) in
        let noops =
          match Prng.int rng 5 with
          | 0 -> [ Engine.Delta.Link_down (a, b); Engine.Delta.Link_up (a, b) ]
          | 1 -> [ Engine.Delta.Rel_set (a, b, rel) ]
          | 2 -> [ Engine.Delta.Withdraw atom.Atom.id; Engine.Delta.Announce atom ]
          | 3 -> [ Engine.Delta.Announce atom ]
          | _ ->
              [
                Engine.Delta.Link_down (a, b);
                Engine.Delta.Link_down (a, b);
                Engine.Delta.Link_up (a, b);
              ]
        in
        (pick_decision_name rng, atoms, noops))
      ~show:show_case
      ~check:(fun (dname, atoms, noops) ->
        let t = Lazy.force typical in
        let net = t.Scenario.network in
        let retain = t.Scenario.retain in
        let decision = decision_of_name dname in
        let st = Engine.init_state ~decision net in
        let (_ : Engine.state) = Engine.repropagate net st (announce_all atoms) in
        let before = Engine.state_results st ~retain in
        let graph_before = Rpi_topo.As_graph.render_edges (Engine.state_graph st) in
        let (_ : Engine.state) = Engine.repropagate net st noops in
        let after = Engine.state_results st ~retain in
        let graph_after = Rpi_topo.As_graph.render_edges (Engine.state_graph st) in
        if not (String.equal graph_before graph_after) then
          Error "no-op delta pair changed the effective graph"
        else if List.equal result_equal_modulo_steps before after then
          Ok (1 + List.length noops)
        else Error "no-op delta pair changed the routing state")
      ()
  in
  let repropagate_commutes_with_coalescing =
    Property.make ~name:"repropagate_commutes_with_coalescing"
      ~gen:(fun rng ->
        let t = Lazy.force typical in
        let atoms = pick_atoms rng t (1 + Prng.int rng 2) in
        let deltas = gen_deltas rng t atoms in
        (* Replaying a prefix doubles up keys so [coalesce] has real work
           to do (last write wins per key on both sides). *)
        let replay =
          List.filteri (fun i _ -> i < Prng.int rng (1 + List.length deltas)) deltas
        in
        (pick_decision_name rng, atoms, deltas @ replay))
      ~show:show_case
      ~shrink:(fun (dname, atoms, deltas) ->
        match deltas with
        | [] | [ _ ] -> []
        | _ ->
            List.mapi
              (fun i _ -> (dname, atoms, List.filteri (fun j _ -> j <> i) deltas))
              deltas)
      ~check:(fun (dname, atoms, deltas) ->
        let t = Lazy.force typical in
        let net = t.Scenario.network in
        let retain = t.Scenario.retain in
        let decision = decision_of_name dname in
        let raw = Engine.init_state ~decision net in
        let (_ : Engine.state) = Engine.repropagate net raw (announce_all atoms) in
        let (_ : Engine.state) = Engine.repropagate net raw deltas in
        let coal = Engine.init_state ~decision net in
        let (_ : Engine.state) = Engine.repropagate net coal (announce_all atoms) in
        let (_ : Engine.state) =
          Engine.repropagate net coal (Engine.Delta.coalesce deltas)
        in
        let raw_graph = Rpi_topo.As_graph.render_edges (Engine.state_graph raw) in
        let coal_graph = Rpi_topo.As_graph.render_edges (Engine.state_graph coal) in
        if not (String.equal raw_graph coal_graph) then
          Error "coalesced deltas yield a different effective graph"
        else if
          List.equal result_equal_modulo_steps
            (Engine.state_results raw ~retain)
            (Engine.state_results coal ~retain)
        then Ok (1 + List.length deltas)
        else Error "coalesced deltas yield a different routing state")
      ()
  in
  (* The change report a watch relies on: after every chunk of churn, lp,
     re-scoped [Announce], sibling-relabel and origin-isolating deltas, an
     atom [changed_atoms] leaves out has equal tables at every AS, and a
     collector watch and a vantage watch hold exactly (per-prefix
     candidate order included) the batch [collector_rib] / [rib_at] over
     [state_results]. *)
  let repropagate_reports_changes =
    (* A re-scoped announce keeps the atom's id but changes its provider
       scope — the timeline's case; a provider-less origin gets an empty
       subset, a spec change with no routing effect. *)
    let rescope rng t (atom : Atom.t) =
      let providers = Rpi_topo.As_graph.providers t.Scenario.graph atom.Atom.origin in
      let provider_scope =
        match (atom.Atom.provider_scope, providers) with
        | Atom.Only_providers _, _ :: _ -> Atom.All_providers
        | (Atom.All_providers | Atom.Only_providers _), [] ->
            Atom.Only_providers Asn.Set.empty
        | Atom.All_providers, _ :: _ ->
            Atom.Only_providers (Asn.Set.singleton (Prng.choice_list rng providers))
      in
      Engine.Delta.Announce { atom with Atom.provider_scope }
    in
    (* Two cases the churn stream seldom reaches.  A relabelled sibling
       link: a sibling relays the sender's class and preference, so its
       slot can keep every stored field while [rel] changes.  An origin
       cut off from all its neighbours before its atom is withdrawn and
       announced again: that solve writes no slot, yet the origin's table
       gains its own route.  The property compares the state only with
       itself, so these deltas need not keep the stable state unique. *)
    let rare_deltas rng t atoms =
      let graph = t.Scenario.graph in
      let sibling_relabels =
        Rpi_topo.As_graph.fold_edges
          (fun a b rel acc ->
            match rel with
            | Relationship.Sibling when Prng.bool rng ->
                let rel' =
                  if Prng.bool rng then Relationship.Customer else Relationship.Provider
                in
                (Engine.Delta.Rel_set (a, b, rel')
                :: (if Prng.bool rng then [ Engine.Delta.Rel_set (a, b, rel) ] else []))
                @ acc
            | Relationship.Sibling | Relationship.Customer | Relationship.Peer
            | Relationship.Provider ->
                acc)
          graph []
      in
      let isolation =
        if Prng.chance rng 0.3 then begin
          let atom = Prng.choice_list rng atoms in
          List.map
            (fun (nb, _) -> Engine.Delta.Link_down (atom.Atom.origin, nb))
            (Rpi_topo.As_graph.neighbors graph atom.Atom.origin)
          @ [ Engine.Delta.Withdraw atom.Atom.id; rescope rng t atom ]
        end
        else []
      in
      (sibling_relabels, isolation)
    in
    (* Interleave two delta lists at random, keeping each one's order. *)
    let rec riffle rng xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> rest
      | x :: xs', y :: ys' ->
          if Prng.bool rng then x :: riffle rng xs' ys else y :: riffle rng xs ys'
    in
    let show (dname, vantage, atoms, chunks) =
      let render chunk = String.concat "; " (List.map Engine.Delta.render chunk) in
      Printf.sprintf "%s vantage %s atoms [%s] chunks [%s]" dname (Asn.to_label vantage)
        (String.concat ";" (List.map (fun (a : Atom.t) -> string_of_int a.Atom.id) atoms))
        (String.concat "] [" (List.map render chunks))
    in
    let same_routes a b = List.equal Route.equal (Rib.all_routes a) (Rib.all_routes b) in
    Property.make ~name:"repropagate_reports_changes"
      ~gen:(fun rng ->
        let t = Lazy.force typical in
        let atoms = pick_atoms rng t (1 + Prng.int rng 3) in
        let deltas =
          List.fold_left
            (fun acc d ->
              if Prng.chance rng 0.3 then rescope rng t (Prng.choice_list rng atoms) :: d :: acc
              else d :: acc)
            [] (gen_deltas rng t atoms)
          |> List.rev
        in
        let sibling_relabels, isolation = rare_deltas rng t atoms in
        let deltas = riffle rng (riffle rng deltas sibling_relabels) isolation in
        let n_chunks = 1 + Prng.int rng 4 in
        let n_deltas = max 1 (List.length deltas) in
        let chunks =
          List.init n_chunks (fun k ->
              List.filteri (fun i _ -> i * n_chunks / n_deltas = k) deltas)
        in
        let vantages =
          match t.Scenario.lg_ases with [] -> t.Scenario.collector_peers | lgs -> lgs
        in
        (pick_decision_name rng, Prng.choice_list rng vantages, atoms, chunks))
      ~show
      ~shrink:(fun (dname, vantage, atoms, chunks) ->
        List.concat
          (List.mapi
             (fun k chunk ->
               List.mapi
                 (fun i _ ->
                   ( dname,
                     vantage,
                     atoms,
                     List.mapi
                       (fun k' c -> if k' = k then List.filteri (fun j _ -> j <> i) c else c)
                       chunks ))
                 chunk)
             chunks))
      ~check:(fun (dname, vantage, atoms, chunks) ->
        let t = Lazy.force typical in
        let net = t.Scenario.network in
        let decision = decision_of_name dname in
        let everyone = Asn.Set.of_list (Rpi_topo.As_graph.ases t.Scenario.graph) in
        let peers = t.Scenario.collector_peers in
        let policy = Scenario.policy_of t vantage in
        let collector = Vantage.watch ~decision net (Vantage.Collector peers) in
        let at_vantage =
          Vantage.watch ~decision net (Vantage.Looking_glass { policy; vantage })
        in
        let st = Vantage.state collector in
        let id_of (r : Engine.result) = r.Engine.atom.Atom.id in
        (* [before]: every atom's result at every AS before the chunk. *)
        let rec go before checked = function
          | [] -> Ok checked
          | chunk :: rest -> (
              Vantage.advance collector chunk;
              Vantage.advance at_vantage chunk;
              let after = Engine.state_results st ~retain:everyone in
              let changed = Engine.changed_atoms st in
              let find id rs = List.find_opt (fun r -> id_of r = id) rs in
              let unchanged id =
                match (find id before, find id after) with
                | Some a, Some b -> result_equal_modulo_steps a b
                | None, None -> true
                | Some _, None | None, Some _ -> false
              in
              let missed =
                List.sort_uniq Int.compare (List.map id_of before @ List.map id_of after)
                |> List.filter (fun id -> not (List.mem id changed || unchanged id))
              in
              match missed with
              | id :: _ ->
                  Error (Printf.sprintf "atom %d changed but changed_atoms missed it" id)
              | [] ->
                  if not (same_routes (Vantage.table collector) (Vantage.collector_rib ~peers after))
                  then Error "collector watch differs from collector_rib over state_results"
                  else if
                    not
                      (same_routes (Vantage.table at_vantage)
                         (Vantage.rib_at ~policy ~vantage after))
                  then Error "vantage watch differs from rib_at over state_results"
                  else go after (checked + 1 + List.length chunk) rest)
        in
        go [] 0 (announce_all atoms :: chunks))
      ()
  in
  let scaled_csr_matches_reference =
    (* The CSR solver at the scale the engine is built for: a 1k-AS
       heavy-tailed topology from [scale_config] (not the pocket
       scenario's ~100 ASs), solved by the arena-reusing CSR engine,
       the sharded batch, and the list-of-routes reference — all three
       byte-identical, for both shipped decision processes. *)
    let scaled =
      lazy
        (let topo =
           Topo_gen.generate
             ~config:(Topo_gen.scale_config ~n:1000)
             (Prng.create ~seed:(seed + 101))
         in
         let network =
           Engine.prepare ~graph:topo.Topo_gen.graph
             ~import:(fun _ -> Rpi_sim.Policy.default_import)
             ()
         in
         let retain = Asn.Set.of_list topo.Topo_gen.tier1 in
         (Array.of_list topo.Topo_gen.stubs, network, retain))
    in
    Property.make ~name:"scaled_csr_matches_reference"
      ~gen:(fun rng ->
        let stubs, _, _ = Lazy.force scaled in
        let n = Array.length stubs in
        let len = 2 + Prng.int rng 3 in
        List.init len (fun k -> (Prng.int rng n, k)))
      ~show:(fun picks ->
        Printf.sprintf "stub-origins [%s]"
          (String.concat ";" (List.map (fun (i, _) -> string_of_int i) picks)))
      ~shrink:(fun picks ->
        match picks with
        | [] | [ _ ] -> []
        | _ -> List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) picks) picks)
      ~check:(fun picks ->
        let stubs, net, retain = Lazy.force scaled in
        let atoms =
          List.map
            (fun (i, k) ->
              let prefix =
                Prefix.make (Ipv4.of_octets 10 (i land 0xFF) ((i lsr 8) land 0xFF) 0) 24
              in
              Atom.vanilla ~id:k ~origin:stubs.(i) [ prefix ])
            picks
        in
        let bad =
          List.filter
            (fun (a : Atom.t) ->
              let fast = Engine.propagate net ~retain a in
              let ref_ = Engine.propagate_reference net ~retain a in
              not (result_equal fast ref_))
            atoms
        in
        match bad with
        | a :: _ ->
            Error
              (Printf.sprintf
                 "CSR solver diverges from the reference on scaled atom %d" a.Atom.id)
        | [] ->
            let sharded =
              Engine.propagate_all net ~retain
                ~decision:Decision.neighbor_specific ~jobs:2 atoms
            in
            let fresh =
              List.map
                (Engine.propagate net ~retain ~decision:Decision.neighbor_specific)
                atoms
            in
            if List.equal result_equal sharded fresh then Ok (3 * List.length atoms)
            else
              Error
                "sharded Per_neighbor batch diverges from fresh per-atom solves \
                 on the scaled topology")
      ()
  in
  [
    sa_subset_monotone;
    import_renumber_invariant;
    gao_permutation_invariant;
    gao_ground_truth;
    interned_engine_matches_reference;
    decision_vanilla_matches_reference;
    scaled_csr_matches_reference;
    ns_bgp_converges_on_gadget;
    incremental_matches_batch;
    repropagate_matches_batch;
    repropagate_idempotent_on_noop;
    repropagate_commutes_with_coalescing;
    repropagate_reports_changes;
  ]

let suite ~seed =
  [
    table_dump_roundtrip;
    show_ip_bgp_roundtrip;
    snapshot_roundtrip;
    rpsl_roundtrip;
    detect_format_total;
    fault_table_dump;
    fault_show_ip_bgp;
    fault_rpsl;
    fault_wire_frame;
    pipelined_matches_serial;
    json_roundtrip;
    runner_ndjson_roundtrip;
  ]
  @ scenario_properties ~seed

let names ~seed = List.map Property.name (suite ~seed)
