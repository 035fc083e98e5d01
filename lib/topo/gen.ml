module Asn = Rpi_bgp.Asn
module Prng = Rpi_prng.Prng

type config = {
  n_tier1 : int;
  n_tier2 : int;
  n_tier3 : int;
  n_stub : int;
  multihoming_prob : float;
  max_providers : int;
  tier2_peering_degree : float;
  tier3_peering_degree : float;
  sibling_pairs : int;
  tier3_upstream_mix : float * float;
      (* (tier2, tier1) probability a tier-3 provider pick comes from each
         class; must sum to 1. *)
  stub_upstream_mix : float * float * float;
      (* (tier3, tier2, tier1) class mix for stub provider picks. *)
  tier12_peering_fraction : float;
      (* Fraction of the largest Tier-2s that obtain settlement-free
         peering with a few Tier-1s. *)
}

let default_config =
  {
    n_tier1 = 10;
    n_tier2 = 80;
    n_tier3 = 350;
    n_stub = 1400;
    multihoming_prob = 0.6;
    max_providers = 4;
    tier2_peering_degree = 4.0;
    tier3_peering_degree = 1.5;
    sibling_pairs = 10;
    tier3_upstream_mix = (0.85, 0.15);
    stub_upstream_mix = (0.60, 0.25, 0.15);
    tier12_peering_fraction = 0.25;
  }

type t = {
  graph : As_graph.t;
  tier1 : Asn.t list;
  tier2 : Asn.t list;
  tier3 : Asn.t list;
  stubs : Asn.t list;
}

let famous_tier1 =
  List.map Asn.of_int [ 1; 7018; 3549; 1239; 701; 209; 2914; 3561; 6453; 6461 ]

let famous_tier2 =
  List.map Asn.of_int
    [ 5511; 7474; 577; 6539; 6538; 6762; 3216; 6667; 2578; 513; 12359; 8262; 559; 12859; 3320; 1299 ]

let first_dynamic_asn = 20000

let max_asn = 0xFFFF_FFFF

(* The famous casts all sit below [first_dynamic_asn] today, but [allocate]
   must not silently mint a duplicate if that ever changes (or if a caller
   supplies a custom pool): dynamic numbering skips anything famous. *)
let famous_set =
  List.fold_left
    (fun s a -> Asn.Set.add a s)
    Asn.Set.empty
    (famous_tier1 @ famous_tier2)

(* Allocate [n] AS numbers, preferring the famous pool then counting up
   (skipping numbers already taken by a famous AS). *)
let allocate pool next n =
  let rec bump next = if Asn.Set.mem (Asn.of_int next) famous_set then bump (next + 1) else next in
  let rec go pool next k acc =
    if k = 0 then (List.rev acc, pool, next)
    else begin
      match pool with
      | a :: rest -> go rest next (k - 1) (a :: acc)
      | [] ->
          let next = bump next in
          go [] (next + 1) (k - 1) (Asn.of_int next :: acc)
    end
  in
  go pool next n []

let validate config =
  let mix_ok parts = List.for_all (fun p -> p >= 0.0) parts && abs_float (List.fold_left ( +. ) 0.0 parts -. 1.0) < 1e-6 in
  (* Both tests hold only for ordered values, so NaN fails them. *)
  let unit_interval x = x >= 0.0 && x <= 1.0 in
  let mean_degree x = Float.is_finite x && x >= 0.0 in
  let t3_t2, t3_t1 = config.tier3_upstream_mix in
  let st_t3, st_t2, st_t1 = config.stub_upstream_mix in
  let dynamic_needed =
    max 0 (config.n_tier1 - List.length famous_tier1)
    + max 0 (config.n_tier2 - List.length famous_tier2)
    + config.n_tier3 + config.n_stub
  in
  let asn_budget = max_asn - first_dynamic_asn + 1 in
  if config.n_tier1 < 2 then Error "need at least 2 Tier-1 ASs"
  else if config.n_tier2 < 0 || config.n_tier3 < 0 || config.n_stub < 0 then
    Error "tier sizes must be non-negative"
  else if config.max_providers < 1 then Error "max_providers must be at least 1"
  else if config.sibling_pairs < 0 then Error "sibling_pairs must be non-negative"
    (* sibling_pairs above the achievable pair count is a target, not an
       error: planting stops at the attempts cap, as it always has. *)
  else if dynamic_needed > asn_budget then
    Error
      (Printf.sprintf
         "tier sizes need %d dynamic AS numbers but only %d exist above %d"
         dynamic_needed asn_budget first_dynamic_asn)
  else if not (mix_ok [ t3_t2; t3_t1 ]) then
    Error "tier3_upstream_mix must be non-negative and sum to 1"
  else if not (mix_ok [ st_t3; st_t2; st_t1 ]) then
    Error "stub_upstream_mix must be non-negative and sum to 1"
  else if not (unit_interval config.multihoming_prob) then
    Error "multihoming_prob must be in [0, 1]"
  else if not (unit_interval config.tier12_peering_fraction) then
    Error "tier12_peering_fraction must be in [0, 1]"
  else if not (mean_degree config.tier2_peering_degree) then
    Error "tier2_peering_degree must be finite and non-negative"
  else if not (mean_degree config.tier3_peering_degree) then
    Error "tier3_peering_degree must be finite and non-negative"
  else Ok ()

let provider_count rng config =
  if Prng.chance rng config.multihoming_prob then
    Prng.int_in rng 2 (max 2 config.max_providers)
  else 1

(* {2 Generation}

   Nodes are int ids laid out by tier: Tier-1 [0,t1), then Tier-2, Tier-3
   and the stubs.  Degrees live in an int array, and each provider class
   is a pool: a Fenwick tree over its members' degree + 1, so a
   preferential-attachment pick is one O(log n) descent.  The descent
   lands on the member that [Prng.weighted_choice] over the class in id
   order would return for the same draw: the weights are integers, and
   their running sums are exact as floats below 2^53.  Every draw is made
   in the order the seed-42 goldens were captured with.  Edges accumulate
   in generation order and the annotated graph is built once at the
   end. *)

(* Members [lo, lo + m) and their Fenwick tree ([tree.(0)] unused).  A
   member already picked for the current customer weighs 0 until its edge
   is added, so it cannot be drawn twice. *)
type pool = { lo : int; tree : int array }

(* Every member starts at weight 1; slot [i] of an all-ones Fenwick tree
   sums [i land (-i)] members. *)
let pool_make lo m = { lo; tree = Array.init (m + 1) (fun i -> i land -i) }

let pool_add pool node delta =
  let i = ref (node - pool.lo + 1) in
  while !i < Array.length pool.tree do
    pool.tree.(!i) <- pool.tree.(!i) + delta;
    i := !i + (!i land - !i)
  done

let pool_total pool =
  let i = ref (Array.length pool.tree - 1) and sum = ref 0 in
  while !i > 0 do
    sum := !sum + pool.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !sum

(* The first member whose running weight sum exceeds [target]. *)
let pool_find pool target =
  let m = Array.length pool.tree - 1 in
  let pos = ref 0 and rest = ref target and step = ref 1 in
  while 2 * !step <= m do
    step := 2 * !step
  done;
  while !step > 0 do
    let next = !pos + !step in
    if next <= m && pool.tree.(next) <= !rest then begin
      pos := next;
      rest := !rest - pool.tree.(next)
    end;
    step := !step / 2
  done;
  pool.lo + !pos

(* One weighted draw, or [None] without drawing when every member is
   taken.  [Prng.float] returns less than [total], so some member's
   running sum exceeds the target. *)
let pool_pick rng pool =
  let total = pool_total pool in
  if total = 0 then None
  else Some (pool_find pool (int_of_float (Prng.float rng (float_of_int total))))

let generate ?(config = default_config) rng =
  (match validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Gen.generate: " ^ msg));
  let tier1, _, next = allocate famous_tier1 first_dynamic_asn config.n_tier1 in
  let tier2, _, next = allocate famous_tier2 next config.n_tier2 in
  let tier3, _, next = allocate [] next config.n_tier3 in
  let stubs, _, _ = allocate [] next config.n_stub in
  let t1 = config.n_tier1 and t2 = config.n_tier2 and t3 = config.n_tier3 in
  let tier2_lo = t1 and tier3_lo = t1 + t2 and stub_lo = t1 + t2 + t3 in
  let n = stub_lo + config.n_stub in
  let asn_of = Array.concat (List.map Array.of_list [ tier1; tier2; tier3; stubs ]) in
  let deg = Array.make n 0 in
  let pool1 = pool_make 0 t1 and pool2 = pool_make tier2_lo t2 in
  let pool3 = pool_make tier3_lo t3 in
  let weigh node delta =
    if node < tier2_lo then pool_add pool1 node delta
    else if node < tier3_lo then pool_add pool2 node delta
    else if node < stub_lo then pool_add pool3 node delta
  in
  let edge_set = Hashtbl.create (4 * n) in
  let edge_key a b = if a < b then (a * n) + b else (b * n) + a in
  let mem_edge a b = Hashtbl.mem edge_set (edge_key a b) in
  let edges = ref [] in
  (* [rel] is how [a] classifies [b]. *)
  let add_edge a b rel =
    Hashtbl.replace edge_set (edge_key a b) ();
    edges := (a, b, rel) :: !edges;
    deg.(a) <- deg.(a) + 1;
    weigh a 1;
    deg.(b) <- deg.(b) + 1;
    weigh b 1
  in
  (* Tier-1: full peering mesh, each pair once with the lower AS number
     first.  The famous cast is not sorted, so ids and AS numbers
     disagree; the graph's map shape follows this insertion order. *)
  for a = 0 to t1 - 1 do
    for b = 0 to t1 - 1 do
      if Asn.compare asn_of.(a) asn_of.(b) < 0 then add_edge a b Relationship.Peer
    done
  done;
  (* A customer's providers are all drawn before any of its edges is
     added, so degrees stay frozen during its picks; [take] zeroes a
     pick's weight and [attach] restores it as the edge goes in. *)
  let take p = weigh p (-(deg.(p) + 1)) in
  let attach c picks =
    List.iter
      (fun p ->
        weigh p (deg.(p) + 1);
        add_edge p c Relationship.Customer)
      (List.rev picks)
  in
  (* Tier-2: [k] providers by preferential attachment over Tier-1, with
     no class draw and no attempts cap: picks stop when Tier-1 runs out. *)
  for c = tier2_lo to tier3_lo - 1 do
    let rec go picks k =
      if k = 0 then picks
      else
        match pool_pick rng pool1 with
        | None -> picks
        | Some p ->
            take p;
            go (p :: picks) (k - 1)
    in
    attach c (go [] (provider_count rng config))
  done;
  (* Tier-3 and stubs: each pick draws its class from the mix first, then
     its member by preferential attachment within the class.  This skews
     degrees towards the top of the hierarchy, as in the measured Internet
     (the paper's Table 1 spans degree 14 to 1330). *)
  let attach_mixed c classes =
    let rec go picks k attempts =
      if k = 0 || attempts > 20 * k then picks
      else begin
        let pool = Prng.weighted_choice rng classes in
        match pool_pick rng pool with
        | None -> go picks k (attempts + 1)
        | Some p ->
            take p;
            go (p :: picks) (k - 1) (attempts + 1)
      end
    in
    attach c (go [] (provider_count rng config) 0)
  in
  let t3_t2, t3_t1 = config.tier3_upstream_mix in
  for c = tier3_lo to stub_lo - 1 do
    attach_mixed c [ (pool2, t3_t2); (pool1, t3_t1) ]
  done;
  let st_t3, st_t2, st_t1 = config.stub_upstream_mix in
  for c = stub_lo to n - 1 do
    attach_mixed c [ (pool3, st_t3); (pool2, st_t2); (pool1, st_t1) ]
  done;
  (* Up to [target] new [rel] edges between random members of
     [lo, lo + count), both endpoints drawn before any check, giving up
     after [cap] attempts. *)
  let add_random lo count ~target ~cap ~ok rel =
    let rec go added attempts =
      if count >= 2 && added < target && attempts <= cap then begin
        let a = lo + Prng.int rng count in
        let b = lo + Prng.int rng count in
        if a <> b && (not (mem_edge a b)) && ok a b then begin
          add_edge a b rel;
          go (added + 1) (attempts + 1)
        end
        else go added (attempts + 1)
      end
    in
    go 0 0
  in
  (* [target_mean * count / 2] peering edges inside a tier, skipping pairs
     of incomparable size — settlement-free peering only happens between
     networks of similar scale, which is also what keeps peer edges
     separable from provider-customer edges by degree ratio.  Peering
     comes after all transit attachment, so the size test sees final
     degrees. *)
  let comparable a b =
    let da = max 1 deg.(a) and db = max 1 deg.(b) in
    max da db <= 3 * min da db
  in
  let add_peering lo count target_mean =
    let target = int_of_float (target_mean *. float_of_int count /. 2.0) in
    add_random lo count ~target ~cap:(target * 30) ~ok:comparable Relationship.Peer
  in
  add_peering tier2_lo t2 config.tier2_peering_degree;
  add_peering tier3_lo t3 config.tier3_peering_degree;
  (* A few sibling pairs among Tier-3 ASs. *)
  add_random tier3_lo t3 ~target:config.sibling_pairs ~cap:(config.sibling_pairs * 20)
    ~ok:(fun _ _ -> true) Relationship.Sibling;
  (* The largest Tier-2s (a stable sort, so ties keep id order) obtain
     peering with a few Tier-1s: this is what gives real Tier-1s their
     dozens of peers rather than just the clique. *)
  let n_peerers = int_of_float (config.tier12_peering_fraction *. float_of_int t2) in
  let tier1_ids = List.init t1 Fun.id in
  List.init t2 (fun i -> tier2_lo + i)
  |> List.stable_sort (fun a b -> Int.compare deg.(b) deg.(a))
  |> List.iteri (fun i b ->
         if i < n_peerers then begin
           let count = Prng.int_in rng 1 (min 3 t1) in
           List.iter
             (fun a -> if not (mem_edge a b) then add_edge a b Relationship.Peer)
             (Prng.sample rng count tier1_ids)
         end);
  (* Register the Tier-1s, then replay the edges in generation order: an
     AS left without any edge (its attachment gave up and nothing else
     linked it) stays out of the graph. *)
  let graph = List.fold_left As_graph.add_as As_graph.empty tier1 in
  let graph =
    List.fold_left
      (fun g (a, b, rel) -> As_graph.add_edge g asn_of.(a) asn_of.(b) rel)
      graph (List.rev !edges)
  in
  { graph; tier1; tier2; tier3; stubs }

let tiers_ground_truth t =
  let tag tier acc ases = List.fold_left (fun m a -> Asn.Map.add a tier m) acc ases in
  let m = tag 1 Asn.Map.empty t.tier1 in
  let m = tag 2 m t.tier2 in
  let m = tag 3 m t.tier3 in
  tag 4 m t.stubs

let scale_config ~n =
  if n < 64 then invalid_arg "Gen.scale_config: need at least 64 ASs";
  let n_tier1 = min 16 (max 4 (4 + (n / 1500))) in
  let n_tier2 = max 8 (n / 60) in
  let n_tier3 = max 20 (n / 7) in
  let n_stub = max 0 (n - n_tier1 - n_tier2 - n_tier3) in
  {
    default_config with
    n_tier1;
    n_tier2;
    n_tier3;
    n_stub;
    sibling_pairs = max 10 (n / 200);
  }

