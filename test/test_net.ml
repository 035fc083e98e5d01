module Ipv4 = Rpi_net.Ipv4
module Prefix = Rpi_net.Prefix
module Trie = Rpi_net.Prefix_trie
module Pset = Rpi_net.Prefix_set
module Wire = Rpi_net.Wire

let addr = Ipv4.of_string_exn
let p = Prefix.of_string_exn

let prefix_testable = Alcotest.testable Prefix.pp Prefix.equal

(* --- Ipv4 --- *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipv4.to_string (addr s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.1.2.3"; "192.168.250.23"; "12.0.0.1" ]

let test_ipv4_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (match Ipv4.of_string s with Error _ -> true | Ok _ -> false))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "1..2.3"; "01x.2.3.4"; "-1.2.3.4" ]

let test_ipv4_octets () =
  Alcotest.(check string) "octets" "12.10.1.0" (Ipv4.to_string (Ipv4.of_octets 12 10 1 0))

let test_ipv4_order () =
  Alcotest.(check bool) "10.0.0.0 < 11.0.0.0" true (Ipv4.compare (addr "10.0.0.0") (addr "11.0.0.0") < 0)

let test_ipv4_succ () =
  Alcotest.(check string) "succ" "10.0.1.0" (Ipv4.to_string (Ipv4.succ (addr "10.0.0.255")));
  Alcotest.(check string) "wraps" "0.0.0.0" (Ipv4.to_string (Ipv4.succ (addr "255.255.255.255")))

let test_ipv4_bit () =
  let a = addr "128.0.0.1" in
  Alcotest.(check bool) "bit 0" true (Ipv4.bit a 0);
  Alcotest.(check bool) "bit 1" false (Ipv4.bit a 1);
  Alcotest.(check bool) "bit 31" true (Ipv4.bit a 31)

(* --- Prefix --- *)

let test_prefix_canonical () =
  Alcotest.check prefix_testable "host bits cleared" (p "10.1.0.0/16") (Prefix.make (addr "10.1.255.255") 16)

let test_prefix_parse () =
  Alcotest.(check string) "roundtrip" "12.0.0.0/19" (Prefix.to_string (p "12.0.0.0/19"));
  Alcotest.check prefix_testable "bare address is /32" (p "1.2.3.4/32") (p "1.2.3.4");
  Alcotest.(check bool)
    "bad length rejected" true
    (match Prefix.of_string "1.2.3.4/33" with Error _ -> true | Ok _ -> false)

let test_prefix_contains () =
  Alcotest.(check bool) "inside" true (Prefix.contains (p "10.0.0.0/8") (addr "10.200.3.4"));
  Alcotest.(check bool) "outside" false (Prefix.contains (p "10.0.0.0/8") (addr "11.0.0.1"));
  Alcotest.(check bool) "default contains all" true (Prefix.contains Prefix.default_route (addr "200.1.2.3"))

let test_prefix_subsumes () =
  Alcotest.(check bool) "/19 subsumes /24" true (Prefix.subsumes (p "12.0.0.0/19") (p "12.0.10.0/24"));
  Alcotest.(check bool) "self subsumes" true (Prefix.subsumes (p "12.0.0.0/19") (p "12.0.0.0/19"));
  Alcotest.(check bool) "not strict on self" false (Prefix.strictly_subsumes (p "12.0.0.0/19") (p "12.0.0.0/19"));
  Alcotest.(check bool) "longer cannot subsume" false (Prefix.subsumes (p "12.0.10.0/24") (p "12.0.0.0/19"))

let test_prefix_split_aggregate () =
  match Prefix.split (p "10.0.0.0/23") with
  | None -> Alcotest.fail "split failed"
  | Some (lo, hi) ->
      Alcotest.check prefix_testable "low half" (p "10.0.0.0/24") lo;
      Alcotest.check prefix_testable "high half" (p "10.0.1.0/24") hi;
      begin
        match Prefix.aggregate lo hi with
        | Some parent -> Alcotest.check prefix_testable "re-aggregates" (p "10.0.0.0/23") parent
        | None -> Alcotest.fail "aggregate failed"
      end;
      Alcotest.(check bool)
        "non-siblings do not aggregate" true
        (Prefix.aggregate (p "10.0.1.0/24") (p "10.0.2.0/24") = None)

let test_prefix_split_32 () =
  Alcotest.(check bool) "cannot split /32" true (Prefix.split (p "1.2.3.4/32") = None)

let test_prefix_split_to () =
  let subs = Prefix.split_to (p "10.0.0.0/22") 24 in
  Alcotest.(check int) "four /24s" 4 (List.length subs);
  Alcotest.(check (list string)) "enumerated"
    [ "10.0.0.0/24"; "10.0.1.0/24"; "10.0.2.0/24"; "10.0.3.0/24" ]
    (List.map Prefix.to_string subs)

let test_prefix_supernet () =
  Alcotest.(check (option string)) "parent"
    (Some "10.0.0.0/23")
    (Option.map Prefix.to_string (Prefix.supernet (p "10.0.1.0/24")));
  Alcotest.(check bool) "no parent of default" true (Prefix.supernet Prefix.default_route = None)

let test_prefix_addresses () =
  Alcotest.(check string) "first" "10.0.0.0" (Ipv4.to_string (Prefix.first_address (p "10.0.0.0/24")));
  Alcotest.(check string) "last" "10.0.0.255" (Ipv4.to_string (Prefix.last_address (p "10.0.0.0/24")))

let test_prefix_order () =
  Alcotest.(check bool) "shorter first on same network" true
    (Prefix.compare (p "10.0.0.0/16") (p "10.0.0.0/24") < 0)

(* --- Trie --- *)

let test_trie_basic () =
  let t = Trie.empty |> Trie.add (p "10.0.0.0/8") 1 |> Trie.add (p "10.1.0.0/16") 2 in
  Alcotest.(check (option int)) "exact /8" (Some 1) (Trie.find (p "10.0.0.0/8") t);
  Alcotest.(check (option int)) "exact /16" (Some 2) (Trie.find (p "10.1.0.0/16") t);
  Alcotest.(check (option int)) "absent" None (Trie.find (p "10.2.0.0/16") t);
  Alcotest.(check int) "cardinal" 2 (Trie.cardinal t)

let test_trie_replace_remove () =
  let t = Trie.empty |> Trie.add (p "10.0.0.0/8") 1 |> Trie.add (p "10.0.0.0/8") 9 in
  Alcotest.(check (option int)) "replaced" (Some 9) (Trie.find (p "10.0.0.0/8") t);
  Alcotest.(check int) "still one entry" 1 (Trie.cardinal t);
  let t = Trie.remove (p "10.0.0.0/8") t in
  Alcotest.(check bool) "empty after removal" true (Trie.is_empty t)

let test_trie_longest_match () =
  let t =
    Trie.empty
    |> Trie.add (p "0.0.0.0/0") 0
    |> Trie.add (p "10.0.0.0/8") 8
    |> Trie.add (p "10.1.0.0/16") 16
  in
  let check_lm addr_s expected =
    match Trie.longest_match (addr addr_s) t with
    | Some (_, v) -> Alcotest.(check int) addr_s expected v
    | None -> Alcotest.failf "%s: no match" addr_s
  in
  check_lm "10.1.2.3" 16;
  check_lm "10.2.0.1" 8;
  check_lm "11.0.0.1" 0

let test_trie_longest_match_empty () =
  Alcotest.(check bool) "no match in empty" true (Trie.longest_match (addr "1.1.1.1") Trie.empty = None)

let test_trie_subsumed_by () =
  let t =
    Trie.of_list
      [ (p "10.0.0.0/8", "a"); (p "10.1.0.0/16", "b"); (p "10.1.2.0/24", "c"); (p "11.0.0.0/8", "d") ]
  in
  let under = Trie.subsumed_by (p "10.0.0.0/8") t |> List.map fst |> List.map Prefix.to_string in
  Alcotest.(check (list string)) "all under 10/8" [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ] under;
  let strict = Trie.strict_more_specifics (p "10.0.0.0/8") t |> List.map fst in
  Alcotest.(check int) "strict excludes self" 2 (List.length strict)

let test_trie_supernets () =
  let t =
    Trie.of_list [ (p "0.0.0.0/0", 0); (p "10.0.0.0/8", 8); (p "10.1.0.0/16", 16) ]
  in
  let ups = Trie.supernets_of (p "10.1.2.0/24") t |> List.map snd in
  Alcotest.(check (list int)) "shortest first" [ 0; 8; 16 ] ups;
  Alcotest.(check bool) "has strict supernet" true (Trie.has_strict_supernet (p "10.1.0.0/16") t);
  Alcotest.(check bool) "default has none" false (Trie.has_strict_supernet (p "0.0.0.0/0") t)

let test_trie_to_list_sorted () =
  let ps = [ p "9.0.0.0/8"; p "10.0.0.0/8"; p "10.0.0.0/16"; p "10.128.0.0/9" ] in
  let t = Trie.of_list (List.map (fun q -> (q, ())) (List.rev ps)) in
  Alcotest.(check (list string))
    "sorted order"
    (List.map Prefix.to_string ps)
    (List.map (fun (q, ()) -> Prefix.to_string q) (Trie.to_list t))

let test_trie_update () =
  let t = Trie.empty |> Trie.update (p "10.0.0.0/8") (fun _ -> Some 1) in
  let t = Trie.update (p "10.0.0.0/8") (Option.map succ) t in
  Alcotest.(check (option int)) "updated" (Some 2) (Trie.find (p "10.0.0.0/8") t);
  let t = Trie.update (p "10.0.0.0/8") (fun _ -> None) t in
  Alcotest.(check bool) "removed" true (Trie.is_empty t)

let test_trie_map_filter () =
  let t = Trie.of_list [ (p "1.0.0.0/8", 1); (p "2.0.0.0/8", 2); (p "3.0.0.0/8", 3) ] in
  let doubled = Trie.map (fun v -> v * 2) t in
  Alcotest.(check (option int)) "mapped" (Some 4) (Trie.find (p "2.0.0.0/8") doubled);
  let odd = Trie.filter (fun _ v -> v mod 2 = 1) t in
  Alcotest.(check int) "filtered" 2 (Trie.cardinal odd)

let test_trie_default_route () =
  (* 0.0.0.0/0 is the zero-depth root entry: it matches the entire
     address space (both extremes included), is its own exact match, and
     subsumes every other binding. *)
  let t = Trie.empty |> Trie.add (p "0.0.0.0/0") 0 |> Trie.add (p "128.0.0.0/1") 1 in
  let lm a =
    match Trie.longest_match (addr a) t with
    | Some (_, v) -> v
    | None -> Alcotest.failf "%s: no match under a default route" a
  in
  Alcotest.(check int) "lowest address" 0 (lm "0.0.0.0");
  Alcotest.(check int) "highest address hits the /1" 1 (lm "255.255.255.255");
  Alcotest.(check int) "just below the /1" 0 (lm "127.255.255.255");
  Alcotest.(check (option int)) "default is an exact match" (Some 0)
    (Trie.find (p "0.0.0.0/0") t);
  Alcotest.(check int) "default subsumes everything" 2
    (List.length (Trie.subsumed_by (p "0.0.0.0/0") t));
  Alcotest.(check (list int)) "default is every prefix's supernet" [ 0; 1 ]
    (Trie.supernets_of (p "255.0.0.0/8") t |> List.map snd)

let test_trie_host_routes () =
  (* /32s sit at maximum depth: exact match, longest match and covering
     queries must all agree, including at the address-space extremes. *)
  let t =
    Trie.of_list
      [
        (p "10.0.0.0/24", 24);
        (p "10.0.0.1/32", 1);
        (p "10.0.0.2/32", 2);
        (p "0.0.0.0/32", 100);
        (p "255.255.255.255/32", 101);
      ]
  in
  let lm a =
    match Trie.longest_match (addr a) t with
    | Some (_, v) -> v
    | None -> Alcotest.failf "%s: no match" a
  in
  Alcotest.(check int) "host beats covering /24" 1 (lm "10.0.0.1");
  Alcotest.(check int) "second host" 2 (lm "10.0.0.2");
  Alcotest.(check int) "non-host falls to the /24" 24 (lm "10.0.0.3");
  Alcotest.(check int) "zero host" 100 (lm "0.0.0.0");
  Alcotest.(check int) "broadcast host" 101 (lm "255.255.255.255");
  Alcotest.(check (option int)) "exact /32" (Some 1) (Trie.find (p "10.0.0.1/32") t);
  Alcotest.(check bool) "a /32 cannot split further" true
    (Prefix.split (p "10.0.0.1/32") = None);
  Alcotest.(check int) "hosts are the /24's strict more-specifics" 2
    (List.length (Trie.strict_more_specifics (p "10.0.0.0/24") t))

let test_trie_adjacent_siblings () =
  (* Two same-length siblings split a parent on one bit.  The match for
     an address in either half must pick that half — never leak to the
     adjacent sibling — even at the first/last address of each half, and
     removing one sibling falls back to the parent, not the neighbour. *)
  let t =
    Trie.of_list
      [ (p "10.0.0.0/24", 24); (p "10.0.0.0/25", 1); (p "10.0.0.128/25", 2) ]
  in
  let lm trie a =
    match Trie.longest_match (addr a) trie with
    | Some (q, v) -> (Prefix.to_string q, v)
    | None -> Alcotest.failf "%s: no match" a
  in
  Alcotest.(check (pair string int)) "first address of the low half"
    ("10.0.0.0/25", 1) (lm t "10.0.0.0");
  Alcotest.(check (pair string int)) "last address of the low half"
    ("10.0.0.0/25", 1) (lm t "10.0.0.127");
  Alcotest.(check (pair string int)) "first address of the high half"
    ("10.0.0.128/25", 2) (lm t "10.0.0.128");
  Alcotest.(check (pair string int)) "last address of the high half"
    ("10.0.0.128/25", 2) (lm t "10.0.0.255");
  let without_low = Trie.remove (p "10.0.0.0/25") t in
  Alcotest.(check (pair string int)) "orphaned half falls back to the parent"
    ("10.0.0.0/24", 24)
    (lm without_low "10.0.0.127");
  Alcotest.(check (pair string int)) "surviving sibling unaffected"
    ("10.0.0.128/25", 2)
    (lm without_low "10.0.0.128");
  Alcotest.(check bool) "sibling is not its neighbour's supernet" false
    (List.exists
       (fun (q, _) -> Prefix.equal q (p "10.0.0.0/25"))
       (Trie.supernets_of (p "10.0.0.128/25") t));
  match Prefix.aggregate (p "10.0.0.0/25") (p "10.0.0.128/25") with
  | Some parent -> Alcotest.check prefix_testable "siblings aggregate" (p "10.0.0.0/24") parent
  | None -> Alcotest.fail "adjacent siblings must aggregate"

(* --- Prefix sets --- *)

let test_pset_ops () =
  let a = Pset.of_list [ p "1.0.0.0/8"; p "2.0.0.0/8" ] in
  let b = Pset.of_list [ p "2.0.0.0/8"; p "3.0.0.0/8" ] in
  Alcotest.(check int) "union" 3 (Pset.cardinal (Pset.union a b));
  Alcotest.(check int) "inter" 1 (Pset.cardinal (Pset.inter a b));
  Alcotest.(check int) "diff" 1 (Pset.cardinal (Pset.diff a b));
  Alcotest.(check bool) "subset" true (Pset.subset (Pset.inter a b) a);
  Alcotest.(check bool) "equal self" true (Pset.equal a a)

let test_pset_queries () =
  let s = Pset.of_list [ p "10.0.0.0/8"; p "10.1.0.0/16" ] in
  Alcotest.(check bool) "covers" true (Pset.covers_address s (addr "10.9.9.9"));
  Alcotest.(check bool) "not covered" false (Pset.covers_address s (addr "11.0.0.1"));
  Alcotest.(check (option string))
    "strict supernet"
    (Some "10.0.0.0/8")
    (Option.map Prefix.to_string (Pset.any_strictly_subsuming (p "10.1.0.0/16") s));
  Alcotest.(check int) "more specifics" 1 (List.length (Pset.more_specifics (p "10.0.0.0/8") s))

let test_pset_aggregable () =
  let s = Pset.of_list [ p "10.0.0.0/24"; p "10.0.1.0/24"; p "10.0.2.0/24" ] in
  match Pset.aggregable_pairs s with
  | [ (lo, hi, parent) ] ->
      Alcotest.check prefix_testable "lo" (p "10.0.0.0/24") lo;
      Alcotest.check prefix_testable "hi" (p "10.0.1.0/24") hi;
      Alcotest.check prefix_testable "parent" (p "10.0.0.0/23") parent
  | other -> Alcotest.failf "expected one pair, got %d" (List.length other)

(* --- Properties --- *)

let gen_prefix =
  QCheck2.Gen.(
    map2
      (fun a len -> Prefix.make (Ipv4.of_int32_exn (a land 0xFFFFFFFF)) len)
      (int_bound 0xFFFFFFF |> map (fun x -> x * 16))
      (int_range 0 32))

let prop_roundtrip =
  QCheck2.Test.make ~name:"prefix string roundtrip" ~count:500 gen_prefix (fun q ->
      Prefix.equal q (Prefix.of_string_exn (Prefix.to_string q)))

let prop_split_parts =
  QCheck2.Test.make ~name:"split halves subsumed and re-aggregate" ~count:500 gen_prefix
    (fun q ->
      match Prefix.split q with
      | None -> Prefix.length q = 32
      | Some (lo, hi) ->
          Prefix.strictly_subsumes q lo && Prefix.strictly_subsumes q hi
          && (not (Prefix.equal lo hi))
          && (match Prefix.aggregate lo hi with
             | Some parent -> Prefix.equal parent q
             | None -> false))

let prop_trie_find_after_add =
  QCheck2.Test.make ~name:"trie find after add" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) gen_prefix)
    (fun qs ->
      let t = Trie.of_list (List.mapi (fun i q -> (q, i)) qs) in
      List.for_all (fun q -> Trie.find q t <> None) qs)

let prop_trie_longest_match_is_supernet =
  QCheck2.Test.make ~name:"longest match subsumes the address" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 1 30) gen_prefix) (int_bound 0xFFFFFF))
    (fun (qs, a) ->
      let a = Ipv4.of_int32_exn (a * 256) in
      let t = Trie.of_list (List.map (fun q -> (q, ())) qs) in
      match Trie.longest_match a t with
      | None -> List.for_all (fun q -> not (Prefix.contains q a)) qs
      | Some (q, ()) ->
          Prefix.contains q a
          && List.for_all
               (fun q' -> (not (Prefix.contains q' a)) || Prefix.length q' <= Prefix.length q)
               qs)

let prop_trie_cardinal =
  QCheck2.Test.make ~name:"cardinal equals distinct keys" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) gen_prefix)
    (fun qs ->
      let distinct = List.sort_uniq Prefix.compare qs in
      let t = Trie.of_list (List.map (fun q -> (q, ())) qs) in
      Trie.cardinal t = List.length distinct)

(* --- Wire: the codecs' fast paths agree with the stdlib --- *)

let test_wire_add_int () =
  List.iter
    (fun n ->
      let s = string_of_int n in
      Alcotest.(check string) s s (Wire.to_string Wire.add_int n);
      Alcotest.(check int) ("length of " ^ s) (String.length s) (Wire.int_length n))
    [ 0; 7; 10; 99; 100; -1; -10; 65535; 4294967295; max_int; min_int; min_int + 1 ]

(* Tokens of plain digits around the 18-digit fast-path limit, or mixed
   with every other character int_of_string gives a meaning to, embedded
   at an offset in a longer string. *)
let gen_token_in_context =
  QCheck2.Gen.(
    let* token =
      oneof
        [
          string_size ~gen:(oneofl [ '0'; '1'; '9' ]) (int_range 0 21);
          string_size
            ~gen:(oneofl [ '0'; '1'; '7'; '9'; '5'; '+'; '-'; '_'; 'x'; 'b'; 'o'; 'u'; 'a' ])
            (int_range 0 8);
        ]
    in
    let* before = string_size ~gen:(oneofl [ ' '; '|'; '1' ]) (int_range 0 3) in
    let+ after = string_size ~gen:(oneofl [ ' '; '|'; '2' ]) (int_range 0 3) in
    (before ^ token ^ after, String.length before, String.length token))

let prop_int_of_substring =
  QCheck2.Test.make ~name:"int_of_substring is int_of_string_opt of the token" ~count:2000
    gen_token_in_context (fun (s, pos, len) ->
      Option.equal Int.equal
        (Wire.int_of_substring s ~pos ~len)
        (int_of_string_opt (String.sub s pos len)))

(* The dotted-quad parse the fast path must agree with: split on dots,
   four octets of at most three characters, each read by
   int_of_string_opt and in range. *)
let reference_ipv4 s =
  let octet x =
    match int_of_string_opt x with
    | Some v when v >= 0 && v <= 255 && String.length x <= 3 && x <> "" -> Some v
    | Some _ | None -> None
  in
  match List.map octet (String.split_on_char '.' s) with
  | [ Some a; Some b; Some c; Some d ] -> Some (Ipv4.of_octets a b c d)
  | _ -> None

let prop_ipv4_reader =
  QCheck2.Test.make ~name:"ipv4 reader agrees with the split-and-convert parse" ~count:2000
    QCheck2.Gen.(
      let octet =
        oneof
          [
            map string_of_int (int_range 0 300);
            string_size ~gen:(oneofl [ '0'; '2'; '5'; '9'; '+'; 'x'; '_' ]) (int_range 0 4);
          ]
      in
      let* parts = list_size (int_range 3 5) octet in
      return (String.concat "." parts))
    (fun s ->
      Option.equal Ipv4.equal (Result.to_option (Ipv4.of_string s)) (reference_ipv4 s))

let () =
  Alcotest.run "rpi_net"
    [
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "invalid" `Quick test_ipv4_invalid;
          Alcotest.test_case "octets" `Quick test_ipv4_octets;
          Alcotest.test_case "order" `Quick test_ipv4_order;
          Alcotest.test_case "succ" `Quick test_ipv4_succ;
          Alcotest.test_case "bit" `Quick test_ipv4_bit;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "canonical" `Quick test_prefix_canonical;
          Alcotest.test_case "parse" `Quick test_prefix_parse;
          Alcotest.test_case "contains" `Quick test_prefix_contains;
          Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
          Alcotest.test_case "split/aggregate" `Quick test_prefix_split_aggregate;
          Alcotest.test_case "split /32" `Quick test_prefix_split_32;
          Alcotest.test_case "split_to" `Quick test_prefix_split_to;
          Alcotest.test_case "supernet" `Quick test_prefix_supernet;
          Alcotest.test_case "addresses" `Quick test_prefix_addresses;
          Alcotest.test_case "order" `Quick test_prefix_order;
        ] );
      ( "trie",
        [
          Alcotest.test_case "basic" `Quick test_trie_basic;
          Alcotest.test_case "replace/remove" `Quick test_trie_replace_remove;
          Alcotest.test_case "longest match" `Quick test_trie_longest_match;
          Alcotest.test_case "longest match empty" `Quick test_trie_longest_match_empty;
          Alcotest.test_case "subsumed_by" `Quick test_trie_subsumed_by;
          Alcotest.test_case "supernets" `Quick test_trie_supernets;
          Alcotest.test_case "sorted listing" `Quick test_trie_to_list_sorted;
          Alcotest.test_case "update" `Quick test_trie_update;
          Alcotest.test_case "map/filter" `Quick test_trie_map_filter;
          Alcotest.test_case "default route boundaries" `Quick test_trie_default_route;
          Alcotest.test_case "host routes" `Quick test_trie_host_routes;
          Alcotest.test_case "adjacent siblings" `Quick test_trie_adjacent_siblings;
        ] );
      ("wire", [ Alcotest.test_case "add_int" `Quick test_wire_add_int ]);
      ( "prefix_set",
        [
          Alcotest.test_case "set ops" `Quick test_pset_ops;
          Alcotest.test_case "queries" `Quick test_pset_queries;
          Alcotest.test_case "aggregable pairs" `Quick test_pset_aggregable;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_split_parts;
            prop_trie_find_after_add;
            prop_trie_longest_match_is_supernet;
            prop_trie_cardinal;
            prop_int_of_substring;
            prop_ipv4_reader;
          ] );
    ]
