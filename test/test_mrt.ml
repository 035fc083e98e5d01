module Asn = Rpi_bgp.Asn
module Route = Rpi_bgp.Route
module Rib = Rpi_bgp.Rib
module As_path = Rpi_bgp.As_path
module Community = Rpi_bgp.Community
module Prefix = Rpi_net.Prefix
module Ipv4 = Rpi_net.Ipv4
module Table_dump = Rpi_mrt.Table_dump
module Show_ip_bgp = Rpi_mrt.Show_ip_bgp
module Loader = Rpi_mrt.Loader

let p = Prefix.of_string_exn
let ip = Ipv4.of_string_exn
let asn = Asn.of_int

let sample_route ?(pfx = "10.1.0.0/16") ?(path = [ 7018; 1239 ]) ?(lp = 110) ?med
    ?(communities = []) () =
  Route.make ~prefix:(p pfx) ~next_hop:(ip "10.27.106.1")
    ~as_path:(As_path.of_list (List.map asn path))
    ~local_pref:lp ?med
    ~communities:(Community.Set.of_list (List.map Community.of_string_exn communities))
    ~router_id:(ip "10.27.106.1")
    ~peer_as:(asn (List.hd path))
    ()

(* --- table dump --- *)

let test_entry_roundtrip () =
  let entry =
    {
      Table_dump.timestamp = 1037577600;
      vantage_as = asn 7018;
      route = sample_route ~communities:[ "7018:4000"; "no-export" ] ~med:5 ();
    }
  in
  let line = Table_dump.entry_to_line entry in
  match Table_dump.entry_of_line line with
  | Error e -> Alcotest.fail e
  | Ok entry' ->
      Alcotest.(check int) "timestamp" entry.Table_dump.timestamp entry'.Table_dump.timestamp;
      Alcotest.(check int) "vantage" 7018 (Asn.to_int entry'.Table_dump.vantage_as);
      Alcotest.(check bool) "route equal" true
        (Route.equal entry.Table_dump.route entry'.Table_dump.route)

let test_entry_missing_fields () =
  let defaults = sample_route ~lp:100 () in
  let entry =
    {
      Table_dump.timestamp = 0;
      vantage_as = asn 1;
      route = { defaults with Route.local_pref = None; med = None };
    }
  in
  let line = Table_dump.entry_to_line entry in
  Alcotest.(check bool) "dashes for absent attrs" true
    (String.length line > 0
    &&
    match Table_dump.entry_of_line line with
    | Ok e -> e.Table_dump.route.Route.local_pref = None && e.Table_dump.route.Route.med = None
    | Error _ -> false)

let test_bad_lines () =
  List.iter
    (fun line ->
      Alcotest.(check bool) line true
        (match Table_dump.entry_of_line line with Error _ -> true | Ok _ -> false))
    [
      "";
      "RIB|x";
      "NOTRIB|0|1|2|10.0.0.0/8|1 2|i|1.2.3.4|-|-|-";
      "RIB|zzz|1|2|10.0.0.0/8|1 2|i|1.2.3.4|-|-|-";
      "RIB|0|1|2|10.0.0.0/99|1 2|i|1.2.3.4|-|-|-";
      "RIB|0|1|2|10.0.0.0/8|1 2|x|1.2.3.4|-|-|-";
      "RIB|0|1|2|10.0.0.0/8|1 2|i|1.2.3.4|abc|-|-";
    ]

let test_rib_roundtrip () =
  let rib =
    Rib.of_routes
      [
        sample_route ();
        sample_route ~pfx:"10.2.0.0/16" ~path:[ 701; 9 ] ();
        sample_route ~pfx:"10.2.0.0/16" ~path:[ 1239; 9 ] ~lp:90 ();
      ]
  in
  let text = Table_dump.rib_to_string ~vantage_as:(asn 1) rib in
  match Table_dump.parse_to_rib text with
  | Error e -> Alcotest.fail e
  | Ok rib' ->
      Alcotest.(check int) "prefixes" (Rib.prefix_count rib) (Rib.prefix_count rib');
      Alcotest.(check int) "routes" (Rib.route_count rib) (Rib.route_count rib')

let test_parse_comments_and_blanks () =
  let text = "# a comment\n\nRIB|0|1|7018|10.0.0.0/8|7018|i|1.2.3.4|-|-|-\n\n" in
  match Table_dump.parse text with
  | Ok [ entry ] ->
      Alcotest.(check string) "prefix" "10.0.0.0/8"
        (Prefix.to_string entry.Table_dump.route.Route.prefix)
  | Ok other -> Alcotest.failf "expected one entry, got %d" (List.length other)
  | Error e -> Alcotest.fail e

let test_parse_error_line_number () =
  let text = "RIB|0|1|7018|10.0.0.0/8|7018|i|1.2.3.4|-|-|-\njunk here\n" in
  match Table_dump.parse text with
  | Error e ->
      Alcotest.(check bool) "mentions line 2" true
        (String.length e >= 6 && String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected error"

(* --- show ip bgp --- *)

let test_show_render_contains_best () =
  let rib =
    Rib.of_routes
      [ sample_route ~lp:110 (); sample_route ~path:[ 701; 1239 ] ~lp:90 () ]
  in
  let text = Show_ip_bgp.render rib in
  Alcotest.(check bool) "has best marker" true (String.contains text '>');
  Alcotest.(check bool) "has header" true
    (String.length text > 3 && String.sub text 0 3 = "BGP")

let test_show_roundtrip () =
  let rib =
    Rib.of_routes
      [
        sample_route ~lp:110 ();
        sample_route ~path:[ 701; 1239 ] ~lp:90 ();
        sample_route ~pfx:"12.0.0.0/19" ~path:[ 3549 ] ~lp:100 ();
      ]
  in
  let text = Show_ip_bgp.render rib in
  match Show_ip_bgp.parse text with
  | Error e -> Alcotest.fail e
  | Ok rib' ->
      Alcotest.(check int) "prefixes" (Rib.prefix_count rib) (Rib.prefix_count rib');
      Alcotest.(check int) "routes" (Rib.route_count rib) (Rib.route_count rib');
      (* Local preference survives. *)
      let best = Rib.best rib' (p "10.1.0.0/16") in
      Alcotest.(check (option int)) "best lp" (Some 110)
        (Option.bind best (fun (r : Route.t) -> r.Route.local_pref))

let test_prefix_detail_roundtrip () =
  let rib =
    Rib.of_routes
      [
        sample_route ~communities:[ "12859:1000" ] ~lp:210 ();
        sample_route ~path:[ 701; 1239 ] ~lp:90 ();
      ]
  in
  let text = Show_ip_bgp.render_prefix_detail rib (p "10.1.0.0/16") in
  Alcotest.(check bool) "has community line" true
    (let needle = "12859:1000" in
     let hl = String.length text and nl = String.length needle in
     let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
     go 0);
  match Show_ip_bgp.parse_prefix_detail text with
  | Error e -> Alcotest.fail e
  | Ok detail ->
      Alcotest.(check bool) "prefix" true
        (Prefix.equal detail.Show_ip_bgp.prefix (p "10.1.0.0/16"));
      Alcotest.(check int) "two paths" 2 (List.length detail.Show_ip_bgp.paths);
      let best_count =
        List.length
          (List.filter (fun (_, _, _, best) -> best) detail.Show_ip_bgp.paths)
      in
      Alcotest.(check int) "one best" 1 best_count;
      let with_comm =
        List.filter
          (fun (_, _, cs, _) -> not (Community.Set.is_empty cs))
          detail.Show_ip_bgp.paths
      in
      Alcotest.(check int) "one tagged path" 1 (List.length with_comm)

let test_show_parse_handwritten () =
  (* A block typed the way a Looking Glass would print it, including a
     continuation line with a blank LocPrf column. *)
  let text =
    String.concat "\n"
      [
        "BGP table version is 1, local router ID is 172.16.1.1";
        "Status codes: s suppressed, d damped, h history, * valid, > best, i - internal";
        "Origin codes: i - IGP, e - EGP, ? - incomplete";
        "";
        "   Network            Next Hop            Metric LocPrf Weight Path";
        "*> 12.0.0.0/19        10.27.86.1               0    110      0 7018 1239 i";
        "*                     10.27.86.2               0      -     0 701 1239 i";
        "*> 192.205.32.0/24    10.0.9.1                 5    100      0 3549 ?";
        "";
      ]
  in
  match Show_ip_bgp.parse text with
  | Error e -> Alcotest.fail e
  | Ok rib ->
      Alcotest.(check int) "two prefixes" 2 (Rib.prefix_count rib);
      Alcotest.(check int) "three routes" 3 (Rib.route_count rib);
      let cands = Rib.candidates rib (p "12.0.0.0/19") in
      Alcotest.(check int) "continuation inherited network" 2 (List.length cands);
      let lps =
        List.filter_map (fun (r : Route.t) -> r.Route.local_pref) cands
        |> List.sort Int.compare
      in
      Alcotest.(check (list int)) "dash locprf tolerated" [ 110 ] lps;
      begin
        match Rib.best rib (p "192.205.32.0/24") with
        | Some r ->
            Alcotest.(check bool) "incomplete origin parsed" true
              (r.Route.origin = Route.Incomplete)
        | None -> Alcotest.fail "missing route"
      end

(* --- loader --- *)

let test_detect_format () =
  Alcotest.(check bool) "dump" true
    (Loader.detect_format "RIB|0|1|2|10.0.0.0/8|1|i|1.2.3.4|-|-|-" = `Table_dump);
  Alcotest.(check bool) "cisco" true
    (Loader.detect_format "BGP table version is 1..." = `Show_ip_bgp);
  Alcotest.(check bool) "unknown" true (Loader.detect_format "hello" = `Unknown)

let test_snapshot_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rpi_test_snapshot" in
  let tables =
    [
      (asn 1, Rib.of_routes [ sample_route () ]);
      (asn 7018, Rib.of_routes [ sample_route ~pfx:"12.0.0.0/19" () ]);
    ]
  in
  Loader.save_snapshot ~dir tables;
  match Loader.load_snapshot ~dir with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
      Alcotest.(check int) "two tables" 2 (List.length loaded);
      Alcotest.(check (list int)) "ascending AS order" [ 1; 7018 ]
        (List.map (fun (a, _) -> Asn.to_int a) loaded);
      List.iter
        (fun (a, rib) ->
          let original = List.assoc a tables in
          Alcotest.(check int) "same size" (Rib.prefix_count original) (Rib.prefix_count rib))
        loaded

let test_load_missing_dir () =
  Alcotest.(check bool) "missing dir is an error" true
    (match Loader.load_snapshot ~dir:"/nonexistent/rpi" with
    | Error _ -> true
    | Ok _ -> false)

(* A throwaway directory under the system tmpdir, removed afterwards. *)
let with_snapshot_dir name files f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (file, contents) ->
          let oc = open_out_bin (Filename.concat dir file) in
          output_string oc contents;
          close_out oc)
        files;
      f dir)

let test_load_empty_dump () =
  (* An empty dump file is a vantage with an empty table, not an error:
     a Looking-Glass pull can legitimately come back with no routes. *)
  with_snapshot_dir "rpi_test_empty_dump" [ ("AS1.dump", "") ] (fun dir ->
      match Loader.load_snapshot ~dir with
      | Error e -> Alcotest.fail e
      | Ok [ (a, rib) ] ->
          Alcotest.(check int) "vantage AS" 1 (Asn.to_int a);
          Alcotest.(check int) "empty rib" 0 (Rib.prefix_count rib)
      | Ok loaded -> Alcotest.failf "expected one table, got %d" (List.length loaded))

let test_load_mixed_format_snapshot () =
  (* A show-format file under a .dump name must fail loudly, naming the
     offending file, instead of silently loading half the snapshot. *)
  let good = "RIB|0|1|65001|10.0.0.0/8|65001 65000|IGP|1.2.3.4|-|-|-" in
  let bad = "*> 10.0.0.0/8      1.2.3.4              0             0 65001 i" in
  with_snapshot_dir "rpi_test_mixed_dump"
    [ ("AS1.dump", good ^ "\n"); ("AS2.dump", bad ^ "\n") ]
    (fun dir ->
      match Loader.load_snapshot ~dir with
      | Ok _ -> Alcotest.fail "mixed-format snapshot loaded without error"
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names AS2.dump" e)
            true
            (String.length e >= 8
            &&
            let rec mem i =
              i + 8 <= String.length e
              && (String.equal (String.sub e i 8) "AS2.dump" || mem (i + 1))
            in
            mem 0))

let test_load_file_missing_path () =
  Alcotest.(check bool) "missing dump file is Error, not an exception" true
    (match Table_dump.load_file "/nonexistent/rpi/AS1.dump" with
    | Error _ -> true
    | Ok _ -> false)

let test_detect_format_pathological () =
  let check name expect text =
    Alcotest.(check bool) name true (Loader.detect_format text = expect)
  in
  check "empty" `Unknown "";
  check "blank lines only" `Unknown "\n\n\n";
  check "lone star is too short" `Unknown "*";
  check "RIB without pipe" `Unknown "RIB";
  check "comment leader" `Table_dump "#x";
  check "BGP prefix even when bogus" `Show_ip_bgp "BGPbogus";
  check "leading blanks are skipped" `Show_ip_bgp "\n\n*> 10.0.0.0/8 1.2.3.4";
  Alcotest.(check bool) "parse_any on unknown is an error" true
    (match Loader.parse_any "hello" with
    | Error _ -> true
    | Ok _ -> false)

(* --- pinned reader behaviour: accepted spellings, exact errors --- *)

let result_t = Alcotest.(result (list string) string)

(* A dump's parse, as the canonical line of each entry. *)
let dump_parse text =
  Result.map (List.map Table_dump.entry_to_line) (Table_dump.parse text)

let show_parse text = Result.map Show_ip_bgp.render (Show_ip_bgp.parse text)

let show_header =
  "BGP table version is 1, local router ID is 172.16.1.1\n\
   Status codes: s suppressed, d damped, h history, * valid, > best, i - internal\n\
   Origin codes: i - IGP, e - EGP, ? - incomplete\n\
   \n\
  \   Network            Next Hop            Metric LocPrf Weight Path\n"

let test_dump_spellings () =
  let text =
    "# bgpdump -m, hand-edited\n\
     \n\
    \   \t\n\
    \  # indented comment\n\
     RIB|1_000|AS7018|+5|010.1.2.3/08|AS7018  0x10   1_000 {2,1}|IGP|010.007.0.1|+5|0x10|7018:0x10 +1:2\n\
    \  RIB|0|as1|-|10.0.0.0/8|1 {} 2 {3,,3}|incomplete|1.2.3.4|-|-|no-export   7018:4000\t\n\
     RIB|-0|1|2|10.2.0.0/16|2   3|e|1.2.3.5|-|-|-\r\n"
  in
  Alcotest.check result_t "accepted spellings, canonical lines"
    (Ok
       [
         "RIB|1000|7018|5|10.0.0.0/8|7018 16 1000 {1,2}|i|10.7.0.1|5|16|1:2 7018:16";
         "RIB|0|1|-|10.0.0.0/8|1 2 {3}|?|1.2.3.4|-|-|7018:4000 no-export";
         "RIB|0|1|2|10.2.0.0/16|2 3|e|1.2.3.5|-|-|-";
       ])
    (dump_parse text)

let test_dump_errors () =
  let good = "RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-" in
  let at_line3 row = Printf.sprintf "# header\n%s\n%s\n%s\n" good row good in
  List.iter
    (fun (row, expected) ->
      Alcotest.check result_t row (Error expected) (dump_parse (at_line3 row)))
    [
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-", "line 3: wrong field count");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-|-", "line 3: wrong field count");
      ("RIBS|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-", "line 3: not a RIB line");
      ("RIB |0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-", "line 3: not a RIB line");
      ("RIB|zzz|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-", "line 3: invalid timestamp \"zzz\"");
      ("RIB|0|AS|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-", "line 3: invalid AS number \"AS\"");
      ("RIB|0| 1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-", "line 3: invalid AS number \" 1\"");
      ("RIB|0|1|4294967296|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-",
        "line 3: invalid AS number \"4294967296\"");
      ("RIB|0|1|2|10.0.0.0/33|2 3|i|1.2.3.4|-|-|-",
        "line 3: invalid prefix length in \"10.0.0.0/33\"");
      ("RIB|0|1|2|10.0.0.0/|2 3|i|1.2.3.4|-|-|-",
        "line 3: invalid prefix length in \"10.0.0.0/\"");
      ("RIB|0|1|2|10.0.0.256/8|2 3|i|1.2.3.4|-|-|-",
        "line 3: invalid IPv4 address \"10.0.0.256\"");
      ("RIB|0|1|2|10.0.0.0/8|2 -3|i|1.2.3.4|-|-|-", "line 3: invalid AS number \"-3\"");
      ("RIB|0|1|2|10.0.0.0/8|2\t3|i|1.2.3.4|-|-|-", "line 3: invalid AS number \"2\\t3\"");
      ("RIB|0|1|2|10.0.0.0/8|2 {3,x}|i|1.2.3.4|-|-|-", "line 3: invalid AS number \"x\"");
      ("RIB|0|1|2|10.0.0.0/8|2 {3|i|1.2.3.4|-|-|-", "line 3: invalid AS number \"{3\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|x|1.2.3.4|-|-|-", "line 3: invalid origin \"x\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3|-|-|-", "line 3: invalid IPv4 address \"1.2.3\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.0004|-|-|-",
        "line 3: invalid IPv4 address \"1.2.3.0004\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|abc|-|-", "line 3: invalid local-pref \"abc\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4||-|-", "line 3: invalid local-pref \"\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|x|-", "line 3: invalid med \"x\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|7018:99999",
        "line 3: invalid community \"7018:99999\"");
      ("RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|7018", "line 3: invalid community \"7018\"");
      ("junk here", "line 3: not a RIB line");
    ]

let test_dump_lenient_salvage () =
  let text =
    "RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-\n\
     RIB|0|1|2|10.0.0.0/33|2 3|i|1.2.3.4|-|-|-\n\
     \n\
     RIB|0|1|2|10.1.0.0/16|2 3|i|1.2.3.4|-|-\n\
     RIB|0|1|3|10.1.0.0/16|3|i|1.2.3.5|-|-|-\n\
     garbage\n"
  in
  let entries, skipped = Table_dump.parse_lenient text in
  Alcotest.(check (list string)) "salvaged"
    [
      "RIB|0|1|2|10.0.0.0/8|2 3|i|1.2.3.4|-|-|-";
      "RIB|0|1|3|10.1.0.0/16|3|i|1.2.3.5|-|-|-";
    ]
    (List.map Table_dump.entry_to_line entries);
  Alcotest.(check (list (pair int string))) "skipped"
    [
      (2, "invalid prefix length in \"10.0.0.0/33\"");
      (4, "wrong field count");
      (6, "not a RIB line");
    ]
    skipped

let test_show_spellings () =
  let text =
    show_header
    ^ "*> 010.1.2.3/08      010.007.0.1             +5   0x10      0 AS7018  1_000   {2,1} IGP\n\
       *                     10.0.0.2                0      -      7 701 1239 ?\n\
       \n\
       *> 10.2.0.0/16        10.0.0.3               07    100      0 i\n\
       *  10.2.0.0/16        10.0.0.4                0    100      0 4 {} 5 e\n"
  in
  Alcotest.check
    Alcotest.(result string string)
    "accepted spellings, canonical rendering"
    (Ok
       (show_header
       ^ "*> 10.0.0.0/8         10.0.0.2                 0      -      0 701 1239 ?\n\
          *                     10.7.0.1                 5     16      0 7018 1000 {1,2} i\n\
          *> 10.2.0.0/16        10.0.0.3                 7    100      0 i\n\
          *                     10.0.0.4                 0    100      0 4 5 e\n"))
    (show_parse text)

let test_show_errors () =
  let good = "*> 10.0.0.0/8       1.2.3.4                  0    100      0 1 i" in
  let at_line7 row = show_header ^ good ^ "\n" ^ row ^ "\n" in
  List.iter
    (fun (row, expected) ->
      Alcotest.check
        Alcotest.(result string string)
        (String.escaped row) (Error expected)
        (show_parse (at_line7 row)))
    [
      ("x> 10.0.0.0/8 1.2.3.4 0 100 0 1 i", "line 7: unrecognised row");
      ("*", "line 7: unrecognised row");
      ("*> 10.0.0.0/8 1.2.3.4 0", "line 7: truncated row");
      ("*> 10.0.0.0/33 1.2.3.4 0 100 0 1 i", "line 7: no network in scope");
      ("*> 10.0.0.0/8 1.2.3 0 100 0 1 i", "line 7: invalid IPv4 address \"1.2.3\"");
      ("*> 10.0.0.0/8 1.2.3.4 y 100 0 1 i", "line 7: bad metric \"y\"");
      ("*> 10.0.0.0/8 1.2.3.4 0 x 0 1 i", "line 7: bad locprf \"x\"");
      ("*> 10.0.0.0/8 1.2.3.4 0 100", "line 7: missing path");
      ("*> 10.0.0.0/8 1.2.3.4 0 100 0", "line 7: missing origin");
      ("*> 10.0.0.0/8 1.2.3.4 0 100 0 1 z", "line 7: invalid origin \"z\"");
      ("*> 10.0.0.0/8 1.2.3.4 0 100 0 1 AS i", "line 7: invalid AS number \"AS\"");
      ("*> 10.0.0.0/8 1.2.3.4 0 100 0 1 i\r", "line 7: invalid origin \"i\\r\"");
      ("*> 10.0.0.0/8 1.2.3.4 0 100 0 1 i\t", "line 7: invalid origin \"i\\t\"");
      ("*> 10.0.0.0/8 1.2.3.4 0 100 0 1\t2 i", "line 7: invalid AS number \"1\\t2\"");
    ];
  Alcotest.check
    Alcotest.(result string string)
    "continuation row before any network" (Error "line 6: no network in scope")
    (show_parse (show_header ^ "*  1.2.3.4 0 100 0 1 i\n"))

let test_show_lenient_salvage () =
  let text =
    show_header
    ^ "*> 10.0.0.0/8 1.2.3.4 0 100 0 1 i\n\
       *  1.2.3.5 0 x 0 2 i\n\
       *  1.2.3.6 0 90 0 3 i\n\
       *> 10.0.0.0/99 1.2.3.7 0 100 0 4 i\n\
       *  1.2.3.8 0 100 0 5 i\n"
  in
  let routes, skipped = Show_ip_bgp.parse_lenient text in
  Alcotest.(check (list string)) "salvaged rows, continuation kept in scope"
    [ "10.0.0.0/8 1"; "10.0.0.0/8 3"; "10.0.0.0/8 5" ]
    (List.map
       (fun (r : Route.t) ->
         Prefix.to_string r.Route.prefix ^ " " ^ As_path.to_string r.Route.as_path)
       routes);
  Alcotest.(check (list (pair int string))) "skipped"
    [ (7, "bad locprf \"x\""); (9, "no network in scope") ]
    skipped

(* Every table of a generated world survives both formats byte for byte:
   write -> parse -> write is the identity and the parse is a fixpoint.
   The collector's table carries only what the dump format stores, so it
   parses back equal to the scenario's own. *)
let test_world_roundtrip () =
  let s = Rpi_dataset.Scenario.build ~config:Rpi_dataset.Scenario.small_config () in
  let roundtrip label write parse rib =
    let text = write rib in
    match parse text with
    | Error e -> Alcotest.failf "%s: %s" label e
    | Ok rib' -> (
        Alcotest.(check string) (label ^ " rewrites identically") text (write rib');
        match parse (write rib') with
        | Error e -> Alcotest.failf "%s reparse: %s" label e
        | Ok rib'' ->
            Alcotest.(check bool) (label ^ " parses back equal") true (Rib.equal rib' rib'');
            rib')
  in
  let collector = Asn.of_int 6447 in
  List.iter
    (fun (a, rib) ->
      let label = Asn.to_label a in
      let dumped =
        roundtrip (label ^ " dump") (Table_dump.rib_to_string ~vantage_as:a)
          Table_dump.parse_to_rib rib
      in
      if Asn.equal a collector then
        Alcotest.(check bool) "collector dump parses back to the scenario's table" true
          (Rib.equal rib dumped);
      ignore (roundtrip (label ^ " show") Show_ip_bgp.render Show_ip_bgp.parse rib : Rib.t))
    ((collector, s.Rpi_dataset.Scenario.collector) :: s.Rpi_dataset.Scenario.lg_tables)

(* --- property: random RIBs survive the dump round-trip --- *)

let gen_rib =
  QCheck2.Gen.(
    let gen_route =
      map3
        (fun net len peer ->
          let prefix = Prefix.make (Ipv4.of_int32_exn ((net * 1021) land 0xFFFFFF00)) len in
          sample_route ~pfx:(Prefix.to_string prefix) ~path:[ peer; 65000 ] ())
        (int_bound 10000) (int_range 8 28) (int_range 1 60000)
    in
    list_size (int_range 1 50) gen_route |> map Rib.of_routes)

let prop_dump_roundtrip =
  QCheck2.Test.make ~name:"table dump roundtrip preserves rib" ~count:100 gen_rib
    (fun rib ->
      let text = Table_dump.rib_to_string ~vantage_as:(asn 1) rib in
      match Table_dump.parse_to_rib text with
      | Ok rib' ->
          Rib.prefix_count rib = Rib.prefix_count rib'
          && Rib.route_count rib = Rib.route_count rib'
      | Error _ -> false)

let prop_show_roundtrip =
  QCheck2.Test.make ~name:"show ip bgp roundtrip preserves counts" ~count:100 gen_rib
    (fun rib ->
      match Show_ip_bgp.parse (Show_ip_bgp.render rib) with
      | Ok rib' -> Rib.prefix_count rib = Rib.prefix_count rib'
      | Error _ -> false)

let () =
  Alcotest.run "rpi_mrt"
    [
      ( "table_dump",
        [
          Alcotest.test_case "entry roundtrip" `Quick test_entry_roundtrip;
          Alcotest.test_case "missing fields" `Quick test_entry_missing_fields;
          Alcotest.test_case "bad lines" `Quick test_bad_lines;
          Alcotest.test_case "rib roundtrip" `Quick test_rib_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
          Alcotest.test_case "error line numbers" `Quick test_parse_error_line_number;
          Alcotest.test_case "accepted spellings" `Quick test_dump_spellings;
          Alcotest.test_case "malformed rows" `Quick test_dump_errors;
          Alcotest.test_case "lenient salvage" `Quick test_dump_lenient_salvage;
        ] );
      ( "show_ip_bgp",
        [
          Alcotest.test_case "render" `Quick test_show_render_contains_best;
          Alcotest.test_case "roundtrip" `Quick test_show_roundtrip;
          Alcotest.test_case "handwritten table" `Quick test_show_parse_handwritten;
          Alcotest.test_case "prefix detail" `Quick test_prefix_detail_roundtrip;
          Alcotest.test_case "accepted spellings" `Quick test_show_spellings;
          Alcotest.test_case "malformed rows" `Quick test_show_errors;
          Alcotest.test_case "lenient salvage" `Quick test_show_lenient_salvage;
        ] );
      ("world", [ Alcotest.test_case "both formats round-trip" `Quick test_world_roundtrip ]);
      ( "loader",
        [
          Alcotest.test_case "detect format" `Quick test_detect_format;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "missing dir" `Quick test_load_missing_dir;
          Alcotest.test_case "empty dump" `Quick test_load_empty_dump;
          Alcotest.test_case "mixed-format snapshot" `Quick test_load_mixed_format_snapshot;
          Alcotest.test_case "load_file missing path" `Quick test_load_file_missing_path;
          Alcotest.test_case "detect_format pathological" `Quick
            test_detect_format_pathological;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_dump_roundtrip; prop_show_roundtrip ] );
    ]
