module Asn = Rpi_bgp.Asn
module Community = Rpi_bgp.Community
module As_path = Rpi_bgp.As_path
module Route = Rpi_bgp.Route
module Decision = Rpi_bgp.Decision
module Rib = Rpi_bgp.Rib
module Update = Rpi_bgp.Update
module Path_intern = Rpi_bgp.Path_intern
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4

let p = Prefix.of_string_exn
let ip = Ipv4.of_string_exn
let asn = Asn.of_int

(* --- Asn --- *)

let test_asn_parse () =
  Alcotest.(check int) "bare" 7018 (Asn.to_int (Asn.of_string_exn "7018"));
  Alcotest.(check int) "AS prefix" 7018 (Asn.to_int (Asn.of_string_exn "AS7018"));
  Alcotest.(check string) "label" "AS7018" (Asn.to_label (asn 7018));
  Alcotest.(check bool) "bad" true
    (match Asn.of_string "ASx" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "negative" true
    (match Asn.of_string "-1" with Error _ -> true | Ok _ -> false)

(* --- Community --- *)

let test_community_basic () =
  let c = Community.make (asn 12859) 1000 in
  Alcotest.(check string) "render" "12859:1000" (Community.to_string c);
  Alcotest.(check int) "asn part" 12859 (Asn.to_int (Community.asn c));
  Alcotest.(check int) "value part" 1000 (Community.value c);
  Alcotest.(check bool) "roundtrip" true
    (Community.equal c (Community.of_string_exn "12859:1000"))

let test_community_wellknown () =
  Alcotest.(check bool) "no-export" true (Community.is_no_export Community.no_export);
  Alcotest.(check string) "render" "no-export" (Community.to_string Community.no_export);
  Alcotest.(check bool) "parse" true
    (Community.equal Community.no_export (Community.of_string_exn "no-export"));
  Alcotest.(check bool) "no-advertise distinct" false
    (Community.equal Community.no_export Community.no_advertise)

let test_community_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true
        (match Community.of_string s with Error _ -> true | Ok _ -> false))
    [ ""; "1:2:3"; "70000:1"; "1:70000"; "abc" ]

let test_community_set () =
  let set =
    match Community.Set.of_string "12859:1000 12859:4000" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "two members" 2 (Community.Set.cardinal set);
  Alcotest.(check string) "render" "12859:1000 12859:4000" (Community.Set.to_string set)

(* --- As_path --- *)

let test_path_basic () =
  let path = As_path.of_list [ asn 701; asn 1239; asn 7018 ] in
  Alcotest.(check int) "length" 3 (As_path.length path);
  Alcotest.(check (option int)) "first hop" (Some 701) (Option.map Asn.to_int (As_path.first_hop path));
  Alcotest.(check (option int)) "origin" (Some 7018) (Option.map Asn.to_int (As_path.origin_as path));
  Alcotest.(check bool) "mem" true (As_path.mem (asn 1239) path);
  Alcotest.(check bool) "not mem" false (As_path.mem (asn 42) path);
  Alcotest.(check string) "render" "701 1239 7018" (As_path.to_string path)

let test_path_empty () =
  Alcotest.(check bool) "empty" true (As_path.is_empty As_path.empty);
  Alcotest.(check int) "zero length" 0 (As_path.length As_path.empty);
  Alcotest.(check bool) "no first hop" true (As_path.first_hop As_path.empty = None);
  Alcotest.(check bool) "empty parses" true
    (As_path.equal As_path.empty (As_path.of_string_exn ""))

let test_path_prepend () =
  let path = As_path.of_list [ asn 2 ] in
  let path = As_path.prepend (asn 1) path in
  Alcotest.(check string) "prepended" "1 2" (As_path.to_string path);
  let padded = As_path.prepend_n (asn 1) 3 path in
  Alcotest.(check string) "prepend_n" "1 1 1 1 2" (As_path.to_string padded);
  Alcotest.(check int) "length counts repeats" 5 (As_path.length padded)

let test_path_as_set () =
  let path = As_path.of_string_exn "701 1239 {4,5,6}" in
  Alcotest.(check int) "set counts one" 3 (As_path.length path);
  Alcotest.(check bool) "mem in set" true (As_path.mem (asn 5) path);
  Alcotest.(check string) "render" "701 1239 {4,5,6}" (As_path.to_string path);
  Alcotest.(check bool) "origin unknown under trailing set" true (As_path.origin_as path = None)

let test_path_pairs () =
  let path = As_path.of_string_exn "1 2 3" in
  Alcotest.(check (list (pair int int)))
    "pairs" [ (1, 2); (2, 3) ]
    (List.map (fun (a, b) -> (Asn.to_int a, Asn.to_int b)) (As_path.pairs path))

let test_path_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (As_path.to_string (As_path.of_string_exn s)))
    [ "7018"; "701 1239"; "701 {2,3}"; "1 2 {3,4} 5" ]

(* --- Decision process --- *)

let base_route ?(pfx = "10.0.0.0/24") ?(lp = 100) ?(path = [ 1; 2 ]) ?(origin = Route.Igp)
    ?med ?(source = Route.Ebgp) ?(igp_metric = 0) ?(rid = "1.1.1.1") () =
  Route.make ~prefix:(p pfx) ~next_hop:(ip "10.0.0.1")
    ~as_path:(As_path.of_list (List.map asn path))
    ~origin ~local_pref:lp ?med ~source ~igp_metric ~router_id:(ip rid) ()

let check_best msg expected candidates =
  match Decision.select_best candidates with
  | None -> Alcotest.failf "%s: nothing selected" msg
  | Some r -> Alcotest.(check bool) msg true (Route.equal r expected)

let test_decision_local_pref () =
  let a = base_route ~lp:110 ~path:[ 1; 2; 3; 4 ] () in
  let b = base_route ~lp:100 ~path:[ 9 ] () in
  check_best "higher lp wins despite longer path" a [ b; a ]

let test_decision_path_length () =
  let a = base_route ~path:[ 1 ] () in
  let b = base_route ~path:[ 2; 3 ] () in
  check_best "shorter path wins" a [ b; a ]

let test_decision_origin () =
  let a = base_route ~origin:Route.Igp ~rid:"2.2.2.2" () in
  let b = base_route ~origin:Route.Incomplete () in
  check_best "IGP origin wins" a [ b; a ]

let test_decision_med_same_as () =
  (* Same next-hop AS: lower MED wins. *)
  let a = base_route ~med:10 () in
  let b = base_route ~med:20 ~rid:"0.0.0.1" () in
  check_best "lower med wins within same AS" a [ b; a ]

let test_decision_med_different_as () =
  (* Different next-hop AS: MED is not compared; decision falls through to
     router id. *)
  let a = base_route ~path:[ 1; 5 ] ~med:50 ~rid:"1.1.1.1" () in
  let b = base_route ~path:[ 2; 5 ] ~med:5 ~rid:"2.2.2.2" () in
  check_best "med skipped across ASs; lower router id wins" a [ b; a ]

let test_decision_ebgp_over_ibgp () =
  let a = base_route ~source:Route.Ebgp ~rid:"9.9.9.9" () in
  let b = base_route ~source:Route.Ibgp ~rid:"1.1.1.1" () in
  check_best "ebgp wins" a [ b; a ]

let test_decision_igp_metric () =
  let a = base_route ~igp_metric:5 ~rid:"9.9.9.9" () in
  let b = base_route ~igp_metric:7 ~rid:"1.1.1.1" () in
  check_best "lower igp metric wins" a [ b; a ]

let test_decision_router_id () =
  let a = base_route ~rid:"1.1.1.1" () in
  let b = base_route ~rid:"2.2.2.2" () in
  check_best "lower router id wins" a [ b; a ]

let test_decision_no_local_pref_config () =
  let config = { Decision.default_config with Decision.use_local_pref = false } in
  let a = base_route ~lp:110 ~path:[ 1; 2; 3 ] () in
  let b = base_route ~lp:90 ~path:[ 7 ] ~rid:"3.3.3.3" () in
  match Decision.select_best ~config [ a; b ] with
  | Some r -> Alcotest.(check bool) "shortest path wins when lp disabled" true (Route.equal r b)
  | None -> Alcotest.fail "nothing selected"

let test_decision_deciding_step () =
  let a = base_route ~lp:110 () in
  let b = base_route ~lp:100 () in
  Alcotest.(check string) "lp decides" "local-pref"
    (Decision.step_to_string (Decision.deciding_step a b));
  let c = base_route ~path:[ 1 ] ~rid:"5.5.5.5" () in
  let d = base_route ~path:[ 1; 2 ] () in
  Alcotest.(check string) "length decides" "as-path-length"
    (Decision.step_to_string (Decision.deciding_step c d))

let test_decision_empty () =
  Alcotest.(check bool) "empty yields none" true (Decision.select_best [] = None)

(* --- Rib --- *)

let mk_peer_route ?(pfx = "10.0.0.0/24") peer path =
  Route.make ~prefix:(p pfx) ~next_hop:(ip "10.0.0.1")
    ~as_path:(As_path.of_list (List.map asn path))
    ~local_pref:100 ~router_id:(ip "1.1.1.1") ~peer_as:(asn peer) ()

let test_rib_sessions () =
  let rib = Rib.empty |> Rib.add_route (mk_peer_route 1 [ 1; 9 ]) in
  let rib = Rib.add_route (mk_peer_route 1 [ 1; 8 ]) rib in
  (* Same session: replaces. *)
  Alcotest.(check int) "one candidate" 1 (List.length (Rib.candidates rib (p "10.0.0.0/24")));
  let rib = Rib.add_route (mk_peer_route 2 [ 2; 9 ]) rib in
  Alcotest.(check int) "two candidates" 2 (List.length (Rib.candidates rib (p "10.0.0.0/24")));
  Alcotest.(check int) "one prefix" 1 (Rib.prefix_count rib);
  Alcotest.(check int) "two routes" 2 (Rib.route_count rib)

let test_rib_best () =
  let rib =
    Rib.of_routes [ mk_peer_route 1 [ 1; 2; 9 ]; mk_peer_route 2 [ 2; 9 ] ]
  in
  match Rib.best rib (p "10.0.0.0/24") with
  | Some r ->
      Alcotest.(check (option int)) "shorter path best" (Some 2) (Option.map Asn.to_int r.Route.peer_as)
  | None -> Alcotest.fail "no best"

let test_rib_withdraw () =
  let rib =
    Rib.of_routes [ mk_peer_route 1 [ 1; 9 ]; mk_peer_route 2 [ 2; 9 ] ]
  in
  let rib = Rib.withdraw ~peer_as:(asn 2) (p "10.0.0.0/24") rib in
  Alcotest.(check int) "one left" 1 (List.length (Rib.candidates rib (p "10.0.0.0/24")));
  let rib = Rib.withdraw ~peer_as:(asn 1) (p "10.0.0.0/24") rib in
  Alcotest.(check int) "prefix gone" 0 (Rib.prefix_count rib)

let test_rib_best_routes () =
  let rib =
    Rib.of_routes
      [
        mk_peer_route ~pfx:"10.0.0.0/24" 1 [ 1; 9 ];
        mk_peer_route ~pfx:"10.0.1.0/24" 1 [ 1; 9 ];
        mk_peer_route ~pfx:"10.0.1.0/24" 2 [ 2 ];
      ]
  in
  Alcotest.(check int) "one best per prefix" 2 (List.length (Rib.best_routes rib));
  Alcotest.(check int) "all routes" 3 (List.length (Rib.all_routes rib))

let test_decision_explain () =
  let a = base_route ~lp:110 () in
  let b = base_route ~lp:100 ~path:[ 7 ] () in
  let c = base_route ~lp:110 ~path:[ 1; 2; 3 ] ~rid:"9.9.9.9" () in
  begin
    match Decision.explain [ b; a; c ] with
    | (winner, None) :: losers ->
        Alcotest.(check bool) "winner is a" true (Route.equal winner a);
        let step_of r =
          List.find_map (fun (r', s) -> if Route.equal r r' then s else None) losers
        in
        Alcotest.(check (option string)) "b lost on local-pref" (Some "local-pref")
          (Option.map Decision.step_to_string (step_of b));
        Alcotest.(check (option string)) "c lost on path length" (Some "as-path-length")
          (Option.map Decision.step_to_string (step_of c))
    | _ -> Alcotest.fail "winner not first"
  end;
  Alcotest.(check int) "empty" 0 (List.length (Decision.explain []))

let test_rib_diff () =
  let old_rib =
    Rib.of_routes
      [
        mk_peer_route ~pfx:"10.0.0.0/24" 1 [ 1; 9 ];
        mk_peer_route ~pfx:"10.0.1.0/24" 1 [ 1; 9 ];
        mk_peer_route ~pfx:"10.0.2.0/24" 1 [ 1; 9 ];
      ]
  in
  let new_rib =
    Rib.of_routes
      [
        mk_peer_route ~pfx:"10.0.0.0/24" 1 [ 1; 9 ];
        (* re-routed via 2 *)
        mk_peer_route ~pfx:"10.0.1.0/24" 2 [ 2; 9 ];
        (* 10.0.2.0/24 withdrawn; 10.0.3.0/24 new *)
        mk_peer_route ~pfx:"10.0.3.0/24" 1 [ 1; 9 ];
      ]
  in
  let d = Rib.diff ~old_rib new_rib in
  Alcotest.(check (list string)) "added" [ "10.0.3.0/24" ]
    (List.map Prefix.to_string d.Rib.added);
  Alcotest.(check (list string)) "removed" [ "10.0.2.0/24" ]
    (List.map Prefix.to_string d.Rib.removed);
  Alcotest.(check int) "unchanged" 1 d.Rib.unchanged;
  match d.Rib.best_changed with
  | [ (prefix, Some old_best, Some new_best) ] ->
      Alcotest.(check string) "which" "10.0.1.0/24" (Prefix.to_string prefix);
      Alcotest.(check (option int)) "old hop" (Some 1)
        (Option.map Asn.to_int (Route.next_hop_as old_best));
      Alcotest.(check (option int)) "new hop" (Some 2)
        (Option.map Asn.to_int (Route.next_hop_as new_best))
  | _ -> Alcotest.fail "expected one best change"

let test_rib_longest_match () =
  let rib =
    Rib.of_routes
      [ mk_peer_route ~pfx:"10.0.0.0/8" 1 [ 1 ]; mk_peer_route ~pfx:"10.1.0.0/16" 2 [ 2 ] ]
  in
  match Rib.longest_match rib (ip "10.1.2.3") with
  | Some (q, _) -> Alcotest.(check string) "most specific" "10.1.0.0/16" (Prefix.to_string q)
  | None -> Alcotest.fail "no match"

(* --- Update --- *)

let test_update_loop_prevention () =
  let route = mk_peer_route 1 [ 1; 7 ] in
  let update = Update.announce ~from_as:(asn 1) ~to_as:(asn 7) route in
  let rib = Update.apply update Rib.empty in
  Alcotest.(check int) "looping announce dropped" 0 (Rib.prefix_count rib);
  let update2 = Update.announce ~from_as:(asn 1) ~to_as:(asn 5) route in
  let rib2 = Update.apply update2 Rib.empty in
  Alcotest.(check int) "clean announce kept" 1 (Rib.prefix_count rib2)

let test_update_withdraw () =
  let route = mk_peer_route 1 [ 1; 7 ] in
  let rib = Update.apply (Update.announce ~from_as:(asn 1) ~to_as:(asn 5) route) Rib.empty in
  let rib = Update.apply (Update.withdraw ~from_as:(asn 1) ~to_as:(asn 5) (p "10.0.0.0/24")) rib in
  Alcotest.(check int) "withdrawn" 0 (Rib.prefix_count rib)

(* --- Properties --- *)

let gen_path =
  QCheck2.Gen.(list_size (int_range 0 8) (int_range 1 65000) |> map (List.map asn))

let prop_path_roundtrip =
  QCheck2.Test.make ~name:"as-path string roundtrip" ~count:300 gen_path (fun hops ->
      let path = As_path.of_list hops in
      As_path.equal path (As_path.of_string_exn (As_path.to_string path)))

let prop_prepend_increases =
  QCheck2.Test.make ~name:"prepend adds one hop" ~count:300 gen_path (fun hops ->
      let path = As_path.of_list hops in
      As_path.length (As_path.prepend (asn 99) path) = As_path.length path + 1)

let prop_best_is_candidate =
  QCheck2.Test.make ~name:"selected best is among candidates" ~count:200
    QCheck2.Gen.(list_size (int_range 1 10) (pair (int_range 50 150) (int_range 1 6)))
    (fun specs ->
      let routes =
        List.mapi
          (fun i (lp, len) ->
            base_route ~lp ~path:(List.init len (fun k -> k + 1))
              ~rid:(Printf.sprintf "1.1.1.%d" (i + 1)) ())
          specs
      in
      match Decision.select_best routes with
      | Some best ->
          List.exists (fun r -> Route.equal r best) routes
          && List.for_all
               (fun r -> Route.effective_local_pref r <= Route.effective_local_pref best)
               routes
      | None -> false)

(* The token-list AS path parse the substring reader must agree with:
   split on spaces, "{...}" tokens are AS_SETs of comma-separated
   members, other tokens extend the current AS_SEQUENCE. *)
let reference_path s =
  let ( let* ) = Result.bind in
  let set_of tok =
    String.split_on_char ',' (String.sub tok 1 (String.length tok - 2))
    |> List.filter (fun m -> m <> "")
    |> List.fold_left
         (fun acc m ->
           let* set = acc in
           let* a = Asn.of_string m in
           Ok (Asn.Set.add a set))
         (Ok Asn.Set.empty)
  in
  let rec go acc = function
    | [] -> Ok (As_path.of_segments (List.rev acc))
    | tok :: rest ->
        let n = String.length tok in
        if n >= 2 && tok.[0] = '{' && tok.[n - 1] = '}' then
          let* set = set_of tok in
          go (As_path.Set set :: acc) rest
        else
          let* a = Asn.of_string tok in
          go
            (match acc with
            | As_path.Seq hops :: acc' -> As_path.Seq (hops @ [ a ]) :: acc'
            | acc' -> As_path.Seq [ a ] :: acc')
            rest
  in
  go [] (String.split_on_char ' ' s |> List.filter (fun t -> t <> ""))

let prop_path_reader =
  let token =
    QCheck2.Gen.oneofl
      [ "7018"; "1"; "AS3"; "+5"; "0x10"; "x"; "{1,2}"; "{}"; "{,3,}"; "{2"; "}"; "{AS4,1}"; "{1,y}" ]
  in
  QCheck2.Test.make ~name:"as-path reader agrees with the token-list parse" ~count:1000
    QCheck2.Gen.(
      map (String.concat "")
        (list_size (int_range 0 6) (pair token (oneofl [ " "; "  "; "" ]) |> map (fun (t, sep) -> sep ^ t))))
    (fun s ->
      match (As_path.of_string s, reference_path s) with
      | Ok p, Ok q -> As_path.equal p q
      | Error e, Error e' -> String.equal e e'
      | Ok _, Error _ | Error _, Ok _ -> false)

(* Routes drawn from a few values per attribute, so a pair often ties on
   several decision steps before one separates them. *)
let gen_decision_route =
  QCheck2.Gen.(
    let* local_pref = oneofl [ None; Some 90; Some 100; Some 110 ] in
    let* len = int_range 1 3 in
    let* first = int_range 1 3 in
    let* origin = oneofl [ Route.Igp; Route.Egp; Route.Incomplete ] in
    let* med = oneofl [ None; Some 0; Some 5 ] in
    let* source = oneofl [ Route.Ebgp; Route.Ibgp; Route.Local ] in
    let* igp_metric = int_range 0 1 in
    let* rid = int_range 1 2 in
    let+ tagged = bool in
    Route.make ~prefix:(p "10.0.0.0/24") ~next_hop:(ip "10.0.0.1")
      ~as_path:(As_path.of_list (List.init len (fun k -> asn (first + k))))
      ~origin ?local_pref ?med
      ~communities:
        (if tagged then Community.Set.singleton (Community.of_string_exn "1:1")
         else Community.Set.empty)
      ~source ~igp_metric ~router_id:(Ipv4.of_int32_exn rid) ~peer_as:(asn first) ())

(* The paper's decision order, written out independently of Decision:
   each step's comparison, negative preferring the first route. *)
let reference_steps =
  let source_rank = function Route.Local -> 0 | Route.Ebgp -> 1 | Route.Ibgp -> 2 in
  [
    ( Decision.Local_pref,
      fun a b -> Int.compare (Route.effective_local_pref b) (Route.effective_local_pref a) );
    ( Decision.Path_length,
      fun (a : Route.t) (b : Route.t) ->
        Int.compare (As_path.length a.as_path) (As_path.length b.as_path) );
    ( Decision.Origin,
      fun (a : Route.t) b ->
        Int.compare (Route.origin_rank a.origin) (Route.origin_rank b.origin) );
    (Decision.Med, fun a b -> Int.compare (Route.effective_med a) (Route.effective_med b));
    ( Decision.Ebgp_over_ibgp,
      fun (a : Route.t) b -> Int.compare (source_rank a.source) (source_rank b.source) );
    (Decision.Igp_metric, fun (a : Route.t) b -> Int.compare a.igp_metric b.igp_metric);
    (Decision.Router_id, fun (a : Route.t) b -> Ipv4.compare a.router_id b.router_id);
  ]

let prop_compare_routes_follows_steps =
  let sign c = Int.compare c 0 in
  QCheck2.Test.make ~name:"compare_routes is decided by the first differing step" ~count:1000
    QCheck2.Gen.(pair gen_decision_route gen_decision_route)
    (fun (a, b) ->
      let step, expected =
        match List.find_opt (fun (_, cmp) -> cmp a b <> 0) reference_steps with
        | Some (step, cmp) -> (step, sign (cmp a b))
        | None -> (Decision.Arbitrary, sign (Route.compare a b))
      in
      (* compare_routes compares MED across neighbour ASes, for totality. *)
      let config = { Decision.default_config with med_across_as = true } in
      sign (Decision.compare_routes a b) = expected
      && sign (Decision.compare_routes b a) = -expected
      && Decision.deciding_step ~config a b = step)

(* --- Path_intern --- *)

(* The lookups agree with the list forms they stand for: [mem] with
   [List.mem], [compare_lex] with [List.compare] on the AS numbers. *)
let test_intern_lookups () =
  let t = Path_intern.create () in
  let paths = [ []; [ 1 ]; [ 1; 0 ]; [ 2; 1 ]; [ 3; 2; 1 ]; [ 4; 2; 1 ]; [ 3; 2; 1; 0 ] ] in
  let id l = Path_intern.of_list t (List.map asn l) in
  List.iter
    (fun a ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (Printf.sprintf "mem %d" x) (List.mem x a)
            (Path_intern.mem t (asn x) (id a)))
        [ 0; 1; 2; 3; 4; 5 ];
      List.iter
        (fun b ->
          Alcotest.(check int)
            "compare_lex matches List.compare"
            (Int.compare (List.compare Int.compare a b) 0)
            (Int.compare (Path_intern.compare_lex t (id a) (id b)) 0))
        paths)
    paths

(* Minor-heap words allocated while [f] runs. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The engine calls [cons], [mem] and [compare_lex] per visit and per
   candidate comparison, so they must not allocate.  The table already
   holds every path the loops touch, so no call grows it. *)
let test_intern_lookups_allocate_nothing () =
  let t = Path_intern.create () in
  let a = Path_intern.of_list t (List.map asn [ 3; 2; 1 ]) in
  let b = Path_intern.of_list t (List.map asn [ 4; 2; 1 ]) in
  let tail = Path_intern.of_list t (List.map asn [ 2; 1 ]) in
  let sink = ref 0 in
  let allocates_nothing what f =
    let words = minor_words_during (fun () -> for _ = 1 to 10_000 do f () done) in
    Alcotest.(check (float 0.)) (what ^ ": minor words over 10k calls") 0. words
  in
  allocates_nothing "cons hit" (fun () ->
      sink := !sink + (Path_intern.cons t (asn 3) tail :> int));
  allocates_nothing "mem on a bloom hit" (fun () ->
      if Path_intern.mem t (asn 1) a then incr sink);
  allocates_nothing "compare_lex" (fun () ->
      sink := !sink + Path_intern.compare_lex t a b);
  Alcotest.(check bool) "the calls ran" true (!sink <> 0)

let () =
  Alcotest.run "rpi_bgp"
    [
      ("asn", [ Alcotest.test_case "parse" `Quick test_asn_parse ]);
      ( "community",
        [
          Alcotest.test_case "basic" `Quick test_community_basic;
          Alcotest.test_case "well-known" `Quick test_community_wellknown;
          Alcotest.test_case "invalid" `Quick test_community_invalid;
          Alcotest.test_case "set" `Quick test_community_set;
        ] );
      ( "as_path",
        [
          Alcotest.test_case "basic" `Quick test_path_basic;
          Alcotest.test_case "empty" `Quick test_path_empty;
          Alcotest.test_case "prepend" `Quick test_path_prepend;
          Alcotest.test_case "as_set" `Quick test_path_as_set;
          Alcotest.test_case "pairs" `Quick test_path_pairs;
          Alcotest.test_case "roundtrip" `Quick test_path_roundtrip;
        ] );
      ( "decision",
        [
          Alcotest.test_case "local pref" `Quick test_decision_local_pref;
          Alcotest.test_case "path length" `Quick test_decision_path_length;
          Alcotest.test_case "origin" `Quick test_decision_origin;
          Alcotest.test_case "med same AS" `Quick test_decision_med_same_as;
          Alcotest.test_case "med different AS" `Quick test_decision_med_different_as;
          Alcotest.test_case "ebgp over ibgp" `Quick test_decision_ebgp_over_ibgp;
          Alcotest.test_case "igp metric" `Quick test_decision_igp_metric;
          Alcotest.test_case "router id" `Quick test_decision_router_id;
          Alcotest.test_case "lp disabled" `Quick test_decision_no_local_pref_config;
          Alcotest.test_case "deciding step" `Quick test_decision_deciding_step;
          Alcotest.test_case "explain" `Quick test_decision_explain;
          Alcotest.test_case "empty" `Quick test_decision_empty;
        ] );
      ( "intern",
        [
          Alcotest.test_case "lookups match lists" `Quick test_intern_lookups;
          Alcotest.test_case "lookups allocate nothing" `Quick
            test_intern_lookups_allocate_nothing;
        ] );
      ( "rib",
        [
          Alcotest.test_case "sessions" `Quick test_rib_sessions;
          Alcotest.test_case "best" `Quick test_rib_best;
          Alcotest.test_case "withdraw" `Quick test_rib_withdraw;
          Alcotest.test_case "best_routes" `Quick test_rib_best_routes;
          Alcotest.test_case "longest match" `Quick test_rib_longest_match;
          Alcotest.test_case "diff" `Quick test_rib_diff;
        ] );
      ( "update",
        [
          Alcotest.test_case "loop prevention" `Quick test_update_loop_prevention;
          Alcotest.test_case "withdraw" `Quick test_update_withdraw;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_path_roundtrip;
            prop_prepend_increases;
            prop_best_is_candidate;
            prop_path_reader;
            prop_compare_routes_follows_steps;
          ] );
    ]
