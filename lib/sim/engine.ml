module Asn = Rpi_bgp.Asn
module Path_intern = Rpi_bgp.Path_intern
module As_graph = Rpi_topo.As_graph
module Csr = Rpi_topo.Csr
module Relationship = Rpi_topo.Relationship

let log_src = Logs.Src.create "rpi.sim.engine" ~doc:"BGP propagation engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type route = {
  path : Asn.t list;
  path_len : int;
  learned_from : Asn.t option;
  rel : Relationship.t option;
  export_class : Relationship.t option;
  lp : int;
  no_up : bool;
}

type table = { candidates : route list; best : route option }

type result = {
  atom : Atom.t;
  tables : table Asn.Map.t;
  converged : bool;
  steps : int;
}

(* Export-class codes: the candidate arena stores the class as a small
   int so change detection and export filtering are scalar compares. *)
let class_none = 0
let class_customer = 1
let class_sibling = 4

let class_code = function
  | None -> class_none
  | Some Relationship.Customer -> class_customer
  | Some Relationship.Peer -> 2
  | Some Relationship.Provider -> 3
  | Some Relationship.Sibling -> class_sibling

(* Decoding returns constant blocks, so it never allocates an option. *)
let class_decode = function
  | 1 -> Some Relationship.Customer
  | 2 -> Some Relationship.Peer
  | 3 -> Some Relationship.Provider
  | 4 -> Some Relationship.Sibling
  | _ -> None

(* The network's adjacency is a CSR (see [Rpi_topo.Csr]): node [i]'s
   out-edges are the contiguous index range [slot_base.(i),
   slot_base.(i+1)), each edge a row of flat parallel arrays.  Because
   the reverse edge of [t] — [edge_slot.(t)] — is also the receiver-side
   slot where [t]'s export lands, one index space serves two readings:

     read at an out-edge index [t]: [edge_to]/[edge_asn] are the
     receiver, and the overlay's [ov_rel] the holder's classification
     of it;

     read at a slot index [s = edge_slot.(t)]: [edge_to.(s)] is the
     slot's *sender*, [edge_asn_int.(s)] its ASN (the preference's
     tie-break column), and [ov_rel.(s)] the receiver's classification
     of that sender.

   Everything the inner loops need is therefore one array load away —
   no per-visit functional-map lookups, no per-edge records. *)

(* The configuration the solver reads beside the fixed geometry: link
   activity, relationship labels and import preferences, indexed like
   the CSR arrays.  [prepare] builds the network's own overlay with
   every link active; an incremental [state] owns a mutable copy that
   its deltas rewrite.  [ov_rel] stays its own invert across the two
   readings above — [ov_rel.(t)] = [Relationship.invert
   ov_rel.(edge_slot.(t))] — because every write sets both directions. *)
type overlay = {
  ov_active : bool array;
  ov_rel : Relationship.t array;
  ov_rel_opt : Relationship.t option array;
      (* preallocated [Some ov_rel.(s)], so the table conversion never
         allocates an option *)
  ov_class : int array;  (* [class_code (Some ov_rel.(s))] *)
  ov_recv_lp : int array;
      (* receiver-side import preference for the slot's edge, exact
         unless the receiver has per-(neighbour, atom) entries *)
  ov_resolved : Policy.resolved array;
      (* import preference compiled to one lookup per AS (lp_atom entries
         and lp overrides folded in) *)
  ov_lp_dynamic : bool array;  (* receiver has per-(neighbour, atom) entries *)
}

type network = {
  graph : As_graph.t;
  ases : Asn.t array;
  index : int Asn.Table.t;
  neighbors : (int * Asn.t * Relationship.t) array array;
      (* per-AS adjacency triples, kept for the reference solver only *)
  transit_scopes : Asn.Set.t option array;
  slot_base : int array;  (* CSR offsets, length n+1 *)
  edge_to : int array;
  edge_asn : Asn.t array;
  edge_asn_int : int array;
  edge_slot : int array;  (* reverse edge index = receiver-side slot *)
  base : overlay;  (* the prepared configuration; never mutated *)
}

let prepare ~graph ~import ?(transit_scope = fun _ -> None) ?(lp_overrides = []) () =
  let csr = Csr.of_graph graph in
  let { Csr.ases; index; off = slot_base; dst = edge_to; dst_asn = edge_asn; rel;
        back = edge_slot } =
    csr
  in
  let n = Array.length ases in
  let total_slots = slot_base.(n) in
  (* The reference solver walks per-AS triples; everything hot reads the
     CSR arrays directly. *)
  let neighbors =
    Array.init n (fun i ->
        Array.init
          (slot_base.(i + 1) - slot_base.(i))
          (fun k ->
            let t = slot_base.(i) + k in
            (edge_to.(t), edge_asn.(t), rel.(t))))
  in
  let import_policies = Array.map import ases in
  (* External per-atom overrides, grouped by holder with their sequence
     order preserved (compile's duplicate-key precedence depends on it);
     entries naming an unknown holder are dropped, like the per-call
     triples they replace. *)
  let overrides_of = Array.make n [] in
  List.iter
    (fun (atom_id, holder, neighbor, lp) ->
      match Asn.Table.find_opt index holder with
      | Some h -> overrides_of.(h) <- (neighbor, atom_id, lp) :: overrides_of.(h)
      | None -> ())
    lp_overrides;
  let resolved =
    Array.mapi
      (fun i p -> Policy.compile ~overrides:(List.rev overrides_of.(i)) p)
      import_policies
  in
  let recv_lp = Array.make total_slots 0 in
  for j = 0 to n - 1 do
    for s = slot_base.(j) to slot_base.(j + 1) - 1 do
      (* Slot [s] of receiver [j]: [edge_asn.(s)]/[rel.(s)] read at a
         slot index are the sender's ASN and [j]'s classification of it. *)
      recv_lp.(s) <- Policy.resolve_static resolved.(j) ~neighbor:edge_asn.(s) ~rel:rel.(s)
    done
  done;
  {
    graph;
    ases;
    index;
    neighbors;
    transit_scopes = Array.map transit_scope ases;
    slot_base;
    edge_to;
    edge_asn;
    edge_asn_int = Array.map Asn.to_int edge_asn;
    edge_slot;
    base =
      {
        ov_active = Array.make total_slots true;
        ov_rel = rel;
        ov_rel_opt = Array.map (fun r -> Some r) rel;
        ov_class = Array.map (fun r -> class_code (Some r)) rel;
        ov_recv_lp = recv_lp;
        ov_resolved = resolved;
        ov_lp_dynamic = Array.map Policy.is_dynamic resolved;
      };
  }

let copy_overlay ov =
  {
    ov_active = Array.copy ov.ov_active;
    ov_rel = Array.copy ov.ov_rel;
    ov_rel_opt = Array.copy ov.ov_rel_opt;
    ov_class = Array.copy ov.ov_class;
    ov_recv_lp = Array.copy ov.ov_recv_lp;
    ov_resolved = Array.map Policy.copy_resolved ov.ov_resolved;
    ov_lp_dynamic = Array.copy ov.ov_lp_dynamic;
  }

(* Candidate preference: higher lp, then shorter path, then smaller
   announcing neighbour, then lexicographic path — a deterministic total
   order standing in for the tie-break tail of the decision process. *)
let compare_candidates a b =
  match Int.compare b.lp a.lp with
  | 0 -> begin
      match Int.compare a.path_len b.path_len with
      | 0 -> begin
          match Option.compare Asn.compare a.learned_from b.learned_from with
          | 0 -> List.compare Asn.compare a.path b.path
          | c -> c
        end
      | c -> c
    end
  | c -> c

let route_equal a b =
  a.lp = b.lp && a.no_up = b.no_up
  && Option.equal Asn.equal a.learned_from b.learned_from
  && Option.equal Relationship.equal a.export_class b.export_class
  && List.equal Asn.equal a.path b.path

(* Would AS [holder] (holding route [r] for [atom]) export it to neighbour
   [nb] classified as [nb_rel]?  [Some tag] = yes, carrying no_up = tag. *)
let export_decision atom ~holder ~(r : route) ~nb ~nb_rel =
  let is_origin =
    match r.learned_from with
    | None -> true
    | Some _ -> false
  in
  if (not is_origin) && Asn.Set.mem holder atom.Atom.suppressed_at then None
  else begin
    let class_ok =
      if is_origin then true
      else begin
        (* The export class survives sibling hops: a peer route relayed by
           a sibling is still a peer route and must not climb again
           (valley-free discipline over sibling-transparent paths). *)
        match r.export_class with
        | Some (Relationship.Customer | Relationship.Sibling) | None -> true
        | Some (Relationship.Peer | Relationship.Provider) -> begin
            (* Peer/provider routes go to customers and siblings only. *)
            match nb_rel with
            | Relationship.Customer | Relationship.Sibling -> true
            | Relationship.Peer | Relationship.Provider -> false
          end
      end
    in
    let no_up_ok =
      (not r.no_up)
      ||
      match nb_rel with
      | Relationship.Customer | Relationship.Sibling -> true
      | Relationship.Peer | Relationship.Provider -> false
    in
    let origin_scope_ok =
      if not is_origin then true
      else begin
        match nb_rel with
        | Relationship.Customer | Relationship.Sibling -> true
        | Relationship.Peer -> not (Asn.Set.mem nb atom.Atom.withhold_peers)
        | Relationship.Provider -> begin
            match atom.Atom.provider_scope with
            | Atom.All_providers -> true
            | Atom.Only_providers set -> Asn.Set.mem nb set
          end
      end
    in
    if class_ok && no_up_ok && origin_scope_ok then
      Some (r.no_up || (is_origin && Asn.Set.mem nb atom.Atom.no_export_up))
    else None
  end

(* ------------------------------------------------------------------ *)
(* The interned solver.

   The production propagation, batch and incremental alike: candidates
   live in an arena over the network's flat slot space, one packed int
   per global slot holding local preference, interned path id, export
   class and the no-up tag (path length is memoized in the intern
   table).  Sender identity is static per slot and the configuration is
   one overlay read, so accepting an export is one int compare and one
   write, and the solver allocates nothing per visit.  It makes exactly
   the decisions of [propagate_reference] (same worklist order, same
   change detection, same preference order), which the rpicheck property
   [interned_engine_matches_reference] pins down byte-for-byte. *)

(* The packed candidate word: local preference in bits 30–61, the
   interned path id in bits 4–29 ([Path_intern.id_bits] wide) and the
   meta nibble in bits 0–3 — export class in bits 0–2, the no-up tag in
   bit 3.  Every field is unsigned and lp tops the word, so a packed
   candidate is never negative and -1 can mark an empty slot; two words
   are equal iff all four fields are.  [Policy.compile] and
   [Policy.override_resolved] keep lp below 2^32 and [Path_intern.cons]
   keeps ids below 2^26, so no field overflows into its neighbour. *)
let path_shift = 4
let lp_shift = path_shift + Path_intern.id_bits
let cand_lp c = c lsr lp_shift
let cand_path c = Path_intern.of_packed (c lsr path_shift)

let pack_cand ~lp (path : Path_intern.id) meta =
  (lp lsl lp_shift) lor ((path :> int) lsl path_shift) lor meta

let origin_cand = pack_cand ~lp:0 Path_intern.nil class_none

(* The origin's own (path-less) route, shared per process. *)
let origin_route =
  {
    path = [];
    path_len = 0;
    learned_from = None;
    rel = None;
    export_class = None;
    lp = 0;
    no_up = false;
  }

(* Worklist rows: a fixed int ring of AS indices with its dedup row
   ([queued] keeps occupancy at most [n], so pushes allocate nothing),
   and the forced row marking seeds whose export step runs even when
   their best is unchanged.  Every solve leaves all three empty — a run
   stopped by the step cap scrubs what it left queued — so arenas solved
   one at a time can share one set. *)
type worklist = { ring : int array; queued : bool array; forced : bool array }

let make_worklist n =
  { ring = Array.make (n + 1) 0; queued = Array.make n false; forced = Array.make n false }

(* One atom's solver state: the intern table, the candidate arena and the
   best rows — one int per slot and two per AS.  A batch worker owns one
   arena and resets it between atoms in O(occupied state) instead of
   re-allocating its rows per atom — at 15k+ ASes the allocations (and
   the intern-table growth) otherwise dominate; an incremental state
   keeps one live arena per announced atom.

   Reset leaves [b_cand] stale on purpose: every read of it is gated
   behind [b_slot.(i) >= 0], so a reset arena is observationally a fresh
   one — the rpicheck differentials pin this by re-solving varied atoms
   through one arena and comparing against fresh runs. *)
type arena = {
  tbl : Path_intern.t;
  (* Candidate arena: slot [slot_base.(j) + k] is what receiver j holds
     from the sender in slot k of its adjacency, as a packed candidate
     word; -1 when the slot is empty. *)
  s_cand : int array;
  (* Best at last visit, copied out of the arena (slot contents mutate in
     place): [b_slot.(i)] is the winning global slot, -1 the origin's own
     route, -2 none, and [b_cand.(i)] that slot's word at the time.
     Distinct slots of one receiver always have distinct senders, so
     slot identity plus the copied word is exactly the old-best content
     [route_equal] would compare. *)
  b_slot : int array;
  b_cand : int array;
  wl : worklist;
  mutable used : bool;  (* solved into since creation or the last reset *)
}

let make_arena net tbl wl =
  let n = Array.length net.ases in
  {
    tbl;
    s_cand = Array.make net.slot_base.(n) (-1);
    b_slot = Array.make n (-2);
    b_cand = Array.make n (-1);
    wl;
    used = false;
  }

(* A batch worker's arena, with a worklist of its own.  The intern table
   is pre-sized for the working set: growth doubles the cell arrays and
   rehashes the probe table, so a table born at ~2n cells (relayed paths
   intern one cell per exporting AS, plus origin variants) rarely grows
   at all. *)
let batch_arena net =
  let n = Array.length net.ases in
  make_arena net (Path_intern.create ~capacity:(max 512 (2 * n)) ()) (make_worklist n)

let reset_arena a =
  if a.used then begin
    Array.fill a.s_cand 0 (Array.length a.s_cand) (-1);
    Array.fill a.b_slot 0 (Array.length a.b_slot) (-2);
    Path_intern.reset a.tbl
  end;
  a.used <- true

(* What one solve runs on: an arena plus the atom it holds.  A batch
   solve wraps a reset worker arena; an incremental state keeps one cell
   per announced atom, alive between repropagations so the next delta
   only pays for its own cone. *)
type cell = {
  c_atom : Atom.t;
  c_origin_i : int;
  c_arena : arena;
  mutable c_converged : bool;  (* outcome of the latest solve *)
  mutable c_steps : int;  (* worklist pops, accumulated over solves *)
  mutable c_wrote : bool;  (* the latest solve wrote a slot *)
}

let make_cell ~caller net arena atom =
  match Asn.Table.find_opt net.index atom.Atom.origin with
  | Some i ->
      { c_atom = atom; c_origin_i = i; c_arena = arena; c_converged = true; c_steps = 0;
        c_wrote = false }
  | None -> invalid_arg (Printf.sprintf "Engine.%s: origin not in graph" caller)

(* The atom's origin-side export spec: per-peer withholding and the
   selective provider scope. *)
let origin_scope_ok atom ~nb = function
  | Relationship.Customer | Relationship.Sibling -> true
  | Relationship.Peer -> not (Asn.Set.mem nb atom.Atom.withhold_peers)
  | Relationship.Provider -> begin
      match atom.Atom.provider_scope with
      | Atom.All_providers -> true
      | Atom.Only_providers set -> Asn.Set.mem nb set
    end

(* Intermediate selective announcement: a relayed customer-class route
   only climbs to providers in the holder's transit scope. *)
let in_transit_scope scope nb =
  match scope with
  | Some scope -> Asn.Set.mem nb scope
  | None -> true

(* The Gao–Rexford rules over the arena, which both decision processes
   apply.  [prefer a sender_asn x y < 0] when slot [x]'s candidate beats
   slot [y]'s: the arena form of [compare_candidates] — higher lp, then
   shorter path, then smaller sender ASN ([sender_asn] read at the slot
   index), then lexicographic path.  Distinct slots of one receiver have
   distinct senders, so it is a total order on them. *)
let[@rpilint.hot] prefer a sender_asn x y =
  let cx = a.s_cand.(x) and cy = a.s_cand.(y) in
  match Int.compare (cand_lp cy) (cand_lp cx) with
  | 0 -> begin
      let px = cand_path cx and py = cand_path cy in
      match Int.compare (Path_intern.length a.tbl px) (Path_intern.length a.tbl py) with
      | 0 -> begin
          match Int.compare sender_asn.(x) sender_asn.(y) with
          | 0 -> Path_intern.compare_lex a.tbl px py
          | c -> c
        end
      | c -> c
    end
  | c -> c

(* The valley-free export rule: may the holder announce the candidate in
   slot [src] (-1 for the origin's own route) to a neighbour it
   classifies as [rel]?  Every route goes down to customers and siblings;
   only customer-class routes (the origin's own, and customer routes
   relayed by siblings) without the no-up tag climb to peers and
   providers.  Mechanics (loop rejection, the atom's export spec,
   aggregation suppression, transit scope) stay with the solver. *)
let[@rpilint.hot] export_ok a ~rel src =
  match rel with
  | Relationship.Customer | Relationship.Sibling -> true
  | Relationship.Peer | Relationship.Provider ->
      src < 0
      ||
      let c = a.s_cand.(src) in
      let cls = c land 7 in
      (cls = class_none || cls = class_customer || cls = class_sibling) && c land 8 = 0

(* Run the fixpoint in [cell]'s arena under configuration [ov], from
   [seeds]: the AS indices whose export step must run even when their own
   best is unchanged.  A batch solve seeds the origin; a repropagation
   seeds the senders over touched adjacencies, whose forced visit
   re-derives (or withdraws) the touched slots in place, and from there
   the ordinary change-driven worklist takes over.  Every slot write
   also sets [c_wrote], which is how [repropagate] learns that the solve
   changed the atom's tables. *)
let solve ~decision net ov cell seeds =
  let { ases; transit_scopes; slot_base; edge_to; edge_asn; edge_asn_int; edge_slot; _ } =
    net
  in
  let { ov_active = active; ov_rel = rel_of; ov_class = class_of; ov_recv_lp = recv_lp;
        ov_resolved = resolved; ov_lp_dynamic = lp_dynamic; _ } =
    ov
  in
  let n = Array.length ases in
  let atom = cell.c_atom in
  let origin_i = cell.c_origin_i in
  let arena = cell.c_arena in
  let { tbl; s_cand; b_slot; b_cand; wl = { ring; queued; forced }; _ } = arena in
  let ring_head = ref 0 in
  let ring_tail = ref 0 in
  let[@rpilint.hot] enqueue i =
    if not queued.(i) then begin
      queued.(i) <- true;
      ring.(!ring_tail) <- i;
      ring_tail := if !ring_tail = n then 0 else !ring_tail + 1
    end
  in
  List.iter
    (fun i ->
      forced.(i) <- true;
      enqueue i)
    seeds;
  cell.c_wrote <- false;
  (* The AS's own best candidate — what it installs for forwarding — by
     [prefer]; -1 the origin's own route, -2 none.  The scan carries its
     running best as a loop argument (not a ref cell) so a visit that
     changes nothing allocates nothing. *)
  let[@rpilint.hot] rec select_from s hi best =
    if s >= hi then best
    else if s_cand.(s) >= 0 && (best < 0 || prefer arena edge_asn_int s best < 0) then
      select_from (s + 1) hi s
    else select_from (s + 1) hi best
  in
  let[@rpilint.hot] select i =
    if i = origin_i then -1 else select_from slot_base.(i) slot_base.(i + 1) (-2)
  in
  let[@rpilint.hot] withdraw t =
    let s = edge_slot.(t) in
    if s_cand.(s) >= 0 then begin
      s_cand.(s) <- -1;
      cell.c_wrote <- true;
      enqueue edge_to.(t)
    end
  in
  (* A relayed route is prepended exactly once, so its interned export
     path is the same for every neighbour: one hash probe per export
     round, on its first exported edge, not one per edge.  Only the
     origin prepends per neighbour (AS-path prepending). *)
  let relay_path = ref Path_intern.nil in
  let relay_ready = ref false in
  let[@rpilint.hot] visit_per_as i force =
    let nb = select i in
    let ob = b_slot.(i) in
    let changed = nb <> ob || (nb >= 0 && b_cand.(i) <> s_cand.(nb)) in
    (* A seed re-runs its export step whether or not its own best moved:
       the origin's first visit, and the senders whose slots a delta
       touched even though nothing upstream changed. *)
    if changed || force then begin
      b_slot.(i) <- nb;
      if nb >= 0 then b_cand.(i) <- s_cand.(nb);
      (* No route any more: withdraw from every neighbour. *)
      if nb = -2 then for t = slot_base.(i) to slot_base.(i + 1) - 1 do withdraw t done
      else begin
        let holder = ases.(i) in
        let holder_int = Asn.to_int holder in
        let is_origin = nb = -1 in
        let r = if is_origin then origin_cand else s_cand.(nb) in
        let r_path = cand_path r in
        let r_lp = cand_lp r in
        let r_class = r land 7 in
        let r_no_up = r land 8 <> 0 in
        let suppressed = (not is_origin) && Asn.Set.mem holder atom.Atom.suppressed_at in
        (* The export rule as a table over the receiver's class, filled
           once per changed visit: it is a pure function of the slot, so
           one answer for customers and siblings and one for peers and
           providers stand for one per edge. *)
        let to_down = not suppressed in
        let to_up = to_down && export_ok arena ~rel:Relationship.Peer nb in
        let scope = transit_scopes.(i) in
        relay_ready := false;
        (* Per-edge visits dominate the whole solver, so the hot loop
           computes the export as scalars and compares them against the
           stored candidate first: re-visits that change nothing (the
           steady state once the wavefront passes) allocate nothing. *)
        for t = slot_base.(i) to slot_base.(i + 1) - 1 do
          let s = edge_slot.(t) in
          let rel_t = rel_of.(t) in
          let allowed =
            active.(s)
            && (match rel_t with
               | Relationship.Customer | Relationship.Sibling -> to_down
               | Relationship.Peer -> to_up
               | Relationship.Provider ->
                   to_up && (is_origin || in_transit_scope scope edge_asn.(t)))
            && ((not is_origin) || origin_scope_ok atom ~nb:edge_asn.(t) rel_t)
            (* Loop rejection: the exported path is the holder prepended
               to its own path, so the neighbour appears on it iff it is
               the holder itself or already on the held path. *)
            && edge_asn_int.(t) <> holder_int
            && not (Path_intern.mem tbl edge_asn.(t) r_path)
          in
          if not allowed then begin
            if s_cand.(s) >= 0 then begin
              s_cand.(s) <- -1;
              cell.c_wrote <- true;
              enqueue edge_to.(t)
            end
          end
          else begin
            let tag =
              r_no_up || (is_origin && Asn.Set.mem edge_asn.(t) atom.Atom.no_export_up)
            in
            (* The origin may pad its own announcement towards selected
               neighbours (AS-path prepending). *)
            let copies =
              if is_origin then 1 + Atom.prepend_count atom ~neighbor:edge_asn.(t) else 1
            in
            let path' =
              if is_origin then Path_intern.cons_n tbl holder copies r_path
              else begin
                if not !relay_ready then begin
                  relay_path := Path_intern.cons tbl holder r_path;
                  relay_ready := true
                end;
                !relay_path
              end
            in
            (* [rel_of] read at the slot index is the receiver's
               classification of the holder. *)
            let back_rel = rel_of.(s) in
            let is_sibling_edge =
              match back_rel with
              | Relationship.Sibling -> true
              | Relationship.Customer | Relationship.Peer | Relationship.Provider -> false
            in
            let lp =
              if is_sibling_edge && not is_origin then
                (* Siblings behave like one AS: the preference assigned by
                   the sending sibling carries over (re-assigning a flat
                   sibling value above peer and provider creates
                   DISAGREE-style oscillation between mutually-preferring
                   siblings).  The origin's own route gets the receiver's
                   sibling class value. *)
                r_lp
              else if lp_dynamic.(edge_to.(t)) then
                Policy.resolve resolved.(edge_to.(t)) ~neighbor:holder ~rel:back_rel
                  ~atom:atom.Atom.id
              else recv_lp.(s)
            in
            let export_class_code =
              if is_sibling_edge then if r_class = class_none then class_customer else r_class
              else class_of.(s)
            in
            let meta' = if tag then export_class_code lor 8 else export_class_code in
            let cand' = pack_cand ~lp path' meta' in
            (* An empty slot holds -1, so presence is part of the same
               compare. *)
            if s_cand.(s) <> cand' then begin
              s_cand.(s) <- cand';
              cell.c_wrote <- true;
              enqueue edge_to.(t)
            end
          end
        done
      end
    end
  in
  (* NS-BGP ([Per_neighbor]): each directed adjacency carries the most
     preferred candidate that is both mechanically announceable and
     policy-exportable over it.  Mechanical legality of announcing source
     [src] (a slot, or -1 for the origin's own route) over out-edge [t] —
     link activity, aggregation suppression, the scopes, loop rejection —
     is checked here; [export_ok] answers the policy question. *)
  let[@rpilint.hot] mechanics_ok i holder_int t src =
    active.(edge_slot.(t))
    && edge_asn_int.(t) <> holder_int
    &&
    if src < 0 then origin_scope_ok atom ~nb:edge_asn.(t) rel_of.(t)
    else
      (not (Asn.Set.mem ases.(i) atom.Atom.suppressed_at))
      && begin
           match rel_of.(t) with
           | Relationship.Provider -> in_transit_scope transit_scopes.(i) edge_asn.(t)
           | Relationship.Customer | Relationship.Peer | Relationship.Sibling -> true
         end
      && not (Path_intern.mem tbl edge_asn.(t) (cand_path s_cand.(src)))
  in
  (* Write the export of [src] over out-edge [t] into the receiver's
     slot, enqueueing the receiver when the stored candidate changed. *)
  let[@rpilint.hot] export_to holder t src =
    let s = edge_slot.(t) in
    let is_origin_route = src < 0 in
    let r = if is_origin_route then origin_cand else s_cand.(src) in
    let r_path = cand_path r in
    let r_lp = cand_lp r in
    let r_class = r land 7 in
    let r_no_up = r land 8 <> 0 in
    let tag =
      r_no_up || (is_origin_route && Asn.Set.mem edge_asn.(t) atom.Atom.no_export_up)
    in
    let copies =
      if is_origin_route then 1 + Atom.prepend_count atom ~neighbor:edge_asn.(t) else 1
    in
    let path' = Path_intern.cons_n tbl holder copies r_path in
    let back_rel = rel_of.(s) in
    let is_sibling_edge =
      match back_rel with
      | Relationship.Sibling -> true
      | Relationship.Customer | Relationship.Peer | Relationship.Provider -> false
    in
    let lp =
      if is_sibling_edge && not is_origin_route then r_lp
      else if lp_dynamic.(edge_to.(t)) then
        Policy.resolve resolved.(edge_to.(t)) ~neighbor:holder ~rel:back_rel
          ~atom:atom.Atom.id
      else recv_lp.(s)
    in
    let export_class_code =
      if is_sibling_edge then if r_class = class_none then class_customer else r_class
      else class_of.(s)
    in
    let meta' = if tag then export_class_code lor 8 else export_class_code in
    let cand' = pack_cand ~lp path' meta' in
    if s_cand.(s) <> cand' then begin
      s_cand.(s) <- cand';
      cell.c_wrote <- true;
      enqueue edge_to.(t)
    end
  in
  let[@rpilint.hot] rec edge_best i holder_int t s hi best =
    if s >= hi then best
    else if
      s_cand.(s) >= 0
      && mechanics_ok i holder_int t s
      && export_ok arena ~rel:rel_of.(t) s
      && (best < 0 || prefer arena edge_asn_int s best < 0)
    then edge_best i holder_int t (s + 1) hi s
    else edge_best i holder_int t (s + 1) hi best
  in
  let[@rpilint.hot] visit_per_neighbor i =
    (* No per-AS change gate: each edge carries its own selection, so
       every visit re-derives all of them and relies on the per-slot
       unchanged compare to keep the worklist quiet. *)
    let holder = ases.(i) in
    let holder_int = Asn.to_int holder in
    let nb = select i in
    b_slot.(i) <- nb;
    if nb >= 0 then b_cand.(i) <- s_cand.(nb);
    let lo = slot_base.(i) in
    let hi = slot_base.(i + 1) in
    for t = lo to hi - 1 do
      (* The export rule passes the origin's own route everywhere. *)
      let src =
        if i = origin_i then if mechanics_ok i holder_int t (-1) then -1 else -2
        else edge_best i holder_int t lo hi (-2)
      in
      if src = -2 then withdraw t else export_to holder t src
    done
  in
  let steps = ref 0 in
  let cap = 200 * (n + 1) in
  while !ring_head <> !ring_tail && !steps <= cap do
    incr steps;
    let i = ring.(!ring_head) in
    ring_head := if !ring_head = n then 0 else !ring_head + 1;
    queued.(i) <- false;
    let force = forced.(i) in
    forced.(i) <- false;
    match decision with
    | Decision.Per_as -> visit_per_as i force
    | Decision.Per_neighbor -> visit_per_neighbor i
  done;
  let converged = !ring_head = !ring_tail in
  if not converged then begin
    Log.warn (fun m ->
        m "propagation of atom %d (decision %s) did not converge within %d steps"
          atom.Atom.id (Decision.name decision) cap);
    (* Scrub the worklist rows for the next solve that shares them. *)
    while !ring_head <> !ring_tail do
      let i = ring.(!ring_head) in
      ring_head := if !ring_head = n then 0 else !ring_head + 1;
      queued.(i) <- false;
      forced.(i) <- false
    done
  end;
  cell.c_converged <- converged;
  cell.c_steps <- cell.c_steps + !steps

(* Thin conversion from the arena back to the public list-of-routes
   representation; only the retained vantage ASs pay for it.  [ov]
   supplies the slots' current relationships (the prepared network's are
   stale in a state after a [Delta.Rel_set]). *)
let cell_result net ov cell ~retain =
  let { ases; index; slot_base; edge_to; _ } = net in
  let { tbl; s_cand; b_slot; b_cand; _ } = cell.c_arena in
  let slot_rel = ov.ov_rel_opt in
  (* [edge_to] read at a slot index is the slot's sender; path length is
     memoized in the intern table. *)
  let to_route s c =
    let path = cand_path c in
    {
      path = Path_intern.to_list tbl path;
      path_len = Path_intern.length tbl path;
      learned_from = Some ases.(edge_to.(s));
      rel = slot_rel.(s);
      export_class = class_decode (c land 7);
      lp = cand_lp c;
      no_up = c land 8 <> 0;
    }
  in
  let tables =
    Asn.Set.fold
      (fun a acc ->
        match Asn.Table.find_opt index a with
        | None -> acc
        | Some i ->
            let cands = ref [] in
            for s = slot_base.(i + 1) - 1 downto slot_base.(i) do
              if s_cand.(s) >= 0 then cands := to_route s s_cand.(s) :: !cands
            done;
            let cands = if i = cell.c_origin_i then origin_route :: !cands else !cands in
            (* [compare_candidates] is total on distinct candidates (two
               routes at one AS differ at least in learned_from), so the
               sorted order is unique whatever the arena order was. *)
            let sorted = List.sort compare_candidates cands in
            (* The best is rebuilt from the copied-out word, not the live
               slot, so a cap-stopped run reports the best as of the AS's
               last visit — exactly what the reference solver stores. *)
            let best =
              match b_slot.(i) with
              | -2 -> None
              | -1 -> Some origin_route
              | s -> Some (to_route s b_cand.(i))
            in
            Asn.Map.add a { candidates = sorted; best } acc)
      retain Asn.Map.empty
  in
  { atom = cell.c_atom; tables; converged = cell.c_converged; steps = cell.c_steps }

(* Solve one atom into a batch worker's arena, seeded at the origin. *)
let propagate_on arena net ~retain ~decision atom =
  let cell = make_cell ~caller:"propagate" net arena atom in
  reset_arena arena;
  solve ~decision net net.base cell [ cell.c_origin_i ];
  cell_result net net.base cell ~retain

let propagate net ~retain ?(decision = Decision.vanilla) atom =
  propagate_on (batch_arena net) net ~retain ~decision atom

(* ------------------------------------------------------------------ *)
(* Reference solver: the direct list-of-routes implementation the
   interned solver is checked against.  Kept deliberately naive. *)

let propagate_reference net ~retain atom =
  let { ases; index; neighbors; base = { ov_resolved = resolved; _ }; transit_scopes; _ } =
    net
  in
  let n = Array.length ases in
  let origin = atom.Atom.origin in
  let origin_i =
    match Asn.Table.find_opt index origin with
    | Some i -> i
    | None -> invalid_arg "Engine.propagate: origin not in graph"
  in
  let lp_at holder_i ~neighbor ~rel =
    Policy.resolve resolved.(holder_i) ~neighbor ~rel ~atom:atom.Atom.id
  in
  (* State: candidates.(i) maps neighbour index -> route received. *)
  let candidates : (int * route) list array = Array.make n [] in
  let best : route option array = Array.make n None in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue i =
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.push i queue
    end
  in
  enqueue origin_i;
  let steps = ref 0 in
  let cap = 200 * (n + 1) in
  let select i =
    if i = origin_i then Some origin_route
    else begin
      match candidates.(i) with
      | [] -> None
      | (_, first) :: rest ->
          Some
            (List.fold_left
               (fun acc (_, r) -> if compare_candidates r acc < 0 then r else acc)
               first rest)
    end
  in
  while (not (Queue.is_empty queue)) && !steps <= cap do
    incr steps;
    let i = Queue.pop queue in
    queued.(i) <- false;
    let holder = ases.(i) in
    let new_best = select i in
    let changed =
      match (best.(i), new_best) with
      | None, None -> false
      | Some a, Some b -> not (route_equal a b)
      | None, Some _ | Some _, None -> true
    in
    (* The origin's best never changes after initialisation, but its first
       visit must run the export step. *)
    if changed || (i = origin_i && !steps = 1) then begin
      best.(i) <- new_best;
      Array.iter
        (fun (j, nb, nb_rel) ->
          let exported =
            match new_best with
            | None -> None
            | Some r -> begin
                let transit_ok =
                  (* Intermediate selective announcement: a relayed
                     customer-class route only climbs to providers in the
                     holder's transit scope. *)
                  match (r.learned_from, nb_rel) with
                  | Some _, Relationship.Provider -> begin
                      match transit_scopes.(i) with
                      | Some scope -> Asn.Set.mem nb scope
                      | None -> true
                    end
                  | (Some _ | None), _ -> true
                in
                if not transit_ok then None
                else begin
                match export_decision atom ~holder ~r ~nb ~nb_rel with
                | None -> None
                | Some tag ->
                    (* The origin may pad its own announcement towards
                       selected neighbours (AS-path prepending). *)
                    let copies =
                      match r.learned_from with
                      | None -> 1 + Atom.prepend_count atom ~neighbor:nb
                      | Some _ -> 1
                    in
                    let path' = List.init copies (fun _ -> holder) @ r.path in
                    if List.exists (Asn.equal nb) path' then None
                    else begin
                      let back_rel = Relationship.invert nb_rel in
                      (* how nb classifies holder *)
                      let lp =
                        match back_rel with
                        | Relationship.Sibling -> begin
                            (* Siblings behave like one AS: the preference
                               assigned by the sending sibling carries over
                               (re-assigning a flat sibling value above peer
                               and provider creates DISAGREE-style
                               oscillation between mutually-preferring
                               siblings).  The origin's own route gets the
                               receiver's sibling class value. *)
                            match r.learned_from with
                            | None ->
                                lp_at j ~neighbor:holder ~rel:back_rel
                            | Some _ -> r.lp
                          end
                        | Relationship.Customer | Relationship.Peer
                        | Relationship.Provider ->
                            lp_at j ~neighbor:holder ~rel:back_rel
                      in
                      let export_class =
                        match back_rel with
                        | Relationship.Sibling -> begin
                            match r.export_class with
                            | None -> Some Relationship.Customer
                            | Some c -> Some c
                          end
                        | Relationship.Customer | Relationship.Peer
                        | Relationship.Provider ->
                            Some back_rel
                      in
                      Some
                        {
                          path = path';
                          path_len = copies + r.path_len;
                          learned_from = Some holder;
                          rel = Some back_rel;
                          export_class;
                          lp;
                          no_up = tag;
                        }
                    end
                end
              end
          in
          let old = List.assoc_opt i candidates.(j) in
          let cand_changed =
            match (old, exported) with
            | None, None -> false
            | Some a, Some b -> not (route_equal a b)
            | None, Some _ | Some _, None -> true
          in
          if cand_changed then begin
            let rest = List.remove_assoc i candidates.(j) in
            candidates.(j) <-
              (match exported with
              | Some r -> (i, r) :: rest
              | None -> rest);
            enqueue j
          end)
        neighbors.(i)
    end
  done;
  let converged = Queue.is_empty queue in
  if not converged then
    Log.warn (fun m ->
        m "propagation of atom %d did not converge within %d steps" atom.Atom.id cap);
  let tables =
    Asn.Set.fold
      (fun a acc ->
        match Asn.Table.find_opt index a with
        | None -> acc
        | Some i ->
            let cands = List.map snd candidates.(i) in
            let cands = if i = origin_i then origin_route :: cands else cands in
            let sorted = List.sort compare_candidates cands in
            Asn.Map.add a { candidates = sorted; best = best.(i) } acc)
      retain Asn.Map.empty
  in
  { atom; tables; converged; steps = !steps }

let propagate_all net ~retain ?(decision = Decision.vanilla) ?(jobs = 1) atoms =
  let arr = Array.of_list atoms in
  let m = Array.length arr in
  let jobs = max 1 (min jobs m) in
  if jobs = 1 then begin
    (* One arena reused across the whole batch: arena and intern-table
       setup is paid once, not per atom — the same fix, at batch
       granularity, that the sharded path below applies per worker. *)
    let arena = batch_arena net in
    List.map (fun atom -> propagate_on arena net ~retain ~decision atom) atoms
  end
  else begin
    (* Sharded fan-out: atoms are split into ~4x[jobs] contiguous chunks
       claimed off one atomic counter — coarse enough that per-task
       dispatch (and per-worker arena setup) amortizes over many
       atoms, fine enough that an unlucky chunk of slow atoms doesn't
       serialize the tail.  Each worker owns one arena (reset between
       atoms is observationally a fresh one), every result cell is
       written by exactly one domain, and the merge reads them back in
       declaration order — so the result is byte-identical whatever the
       domain count or chunking. *)
    let n_chunks = min m (4 * jobs) in
    let slots = Array.make m None in
    let next = Atomic.make 0 in
    let worker _id =
      let arena = batch_arena net in
      let rec loop () =
        let c = Atomic.fetch_and_add next 1 in
        if c < n_chunks then begin
          let lo = c * m / n_chunks and hi = (c + 1) * m / n_chunks in
          for k = lo to hi - 1 do
            slots.(k) <-
              Some
                (try Ok (propagate_on arena net ~retain ~decision arr.(k))
                 with e -> Error (e, Printexc.get_raw_backtrace ()))
          done;
          loop ()
        end
      in
      loop ()
    in
    Rpi_pool.Pool.run ~jobs worker;
    Array.to_list slots
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let iter_propagated net ~retain ?(decision = Decision.vanilla) atoms ~f =
  match atoms with
  | [] -> ()
  | _ :: _ ->
      (* Streaming fan-out: one arena, one live result at a time, in
         declaration order — callers fold vantage tables incrementally
         instead of materializing every per-AS result list at once. *)
      let arena = batch_arena net in
      List.iter (fun atom -> f (propagate_on arena net ~retain ~decision atom)) atoms

(* ------------------------------------------------------------------ *)
(* Incremental re-propagation.

   A prepared network fixes the link universe and the slot geometry; the
   incremental [state] owns a mutable copy of its configuration overlay
   plus one live cell per announced atom.  [repropagate] applies a batch
   of deltas to the overlay, seeds each atom's worklist from the touched
   senders (the dirty-cone frontier) and re-solves only what the
   wavefront actually reaches: untouched atoms are skipped outright, and
   within a touched atom the per-slot unchanged-compare stops the wave as
   soon as the re-derived candidates match the stored ones.

   The solver is the batch one, reading the state's overlay instead of
   the network's.  On a uniquely-stable configuration it makes exactly
   the decisions of [propagate] on the equivalent freshly-prepared
   network — the rpicheck property [repropagate_matches_batch] pins the
   full results (candidate order included) byte-for-byte, for both
   decision processes. *)

module Int_tbl = Hashtbl.Make (Int)

module Delta = struct
  type t =
    | Link_down of Asn.t * Asn.t
    | Link_up of Asn.t * Asn.t
    | Rel_set of Asn.t * Asn.t * Relationship.t
    | Lp_set of { atom_id : int; holder : Asn.t; neighbor : Asn.t; lp : int }
    | Announce of Atom.t
    | Withdraw of int

  (* Coalescing key: two deltas coalesce iff they write the same
     configuration cell.  Link up/down share one key per undirected link
     (both write its activity bit); [Rel_set] has its own per-link key
     (activity and label are independent state); [Lp_set] is keyed by the
     override triple; [Announce]/[Withdraw] both write the atom's
     announced-state. *)
  type key =
    | K_active of int * int
    | K_rel of int * int
    | K_lp of int * int * int
    | K_atom of int

  let link_key a b =
    let ai = Asn.to_int a and bi = Asn.to_int b in
    if ai <= bi then (ai, bi) else (bi, ai)

  let key = function
    | Link_down (a, b) | Link_up (a, b) ->
        let x, y = link_key a b in
        K_active (x, y)
    | Rel_set (a, b, _) ->
        let x, y = link_key a b in
        K_rel (x, y)
    | Lp_set { atom_id; holder; neighbor; _ } ->
        K_lp (atom_id, Asn.to_int holder, Asn.to_int neighbor)
    | Announce atom -> K_atom atom.Atom.id
    | Withdraw id -> K_atom id

  let coalesce ds =
    let last = Hashtbl.create 16 in
    List.iter (fun d -> Hashtbl.replace last (key d) d) ds;
    let emitted = Hashtbl.create 16 in
    List.filter_map
      (fun d ->
        let k = key d in
        if Hashtbl.mem emitted k then None
        else begin
          Hashtbl.add emitted k ();
          Some (Hashtbl.find last k)
        end)
      ds

  let render = function
    | Link_down (a, b) ->
        Printf.sprintf "link-down AS%d AS%d" (Asn.to_int a) (Asn.to_int b)
    | Link_up (a, b) ->
        Printf.sprintf "link-up AS%d AS%d" (Asn.to_int a) (Asn.to_int b)
    | Rel_set (a, b, rel) ->
        Printf.sprintf "rel-set AS%d AS%d %s" (Asn.to_int a) (Asn.to_int b)
          (Relationship.to_string rel)
    | Lp_set { atom_id; holder; neighbor; lp } ->
        Printf.sprintf "lp-set atom %d AS%d from AS%d -> %d" atom_id
          (Asn.to_int holder) (Asn.to_int neighbor) lp
    | Announce atom -> Printf.sprintf "announce %d" atom.Atom.id
    | Withdraw id -> Printf.sprintf "withdraw %d" id

  let of_event ~atom_of = function
    | Rpi_topo.Churn.Link_down (a, b) -> Link_down (a, b)
    | Rpi_topo.Churn.Link_up (a, b) -> Link_up (a, b)
    | Rpi_topo.Churn.Rel_change (a, b, rel) -> Rel_set (a, b, rel)
    | Rpi_topo.Churn.Announce id -> Announce (atom_of id)
    | Rpi_topo.Churn.Withdraw id -> Withdraw id
end

type state = {
  st_net : network;
  st_decision : Decision.t;
  st_ov : overlay;  (* the state's own copy of the network's overlay *)
  st_wl : worklist;  (* cells are solved one at a time, so they share one *)
  st_cells : cell Int_tbl.t;  (* keyed by atom id *)
  mutable st_changed : int list;  (* ids the latest [repropagate] reported *)
}

let init_state ?(decision = Decision.vanilla) net =
  {
    st_net = net;
    st_decision = decision;
    st_ov = copy_overlay net.base;
    st_wl = make_worklist (Array.length net.ases);
    st_cells = Int_tbl.create 64;
    st_changed = [];
  }

let state_atoms st =
  Int_tbl.fold (fun _ c acc -> c.c_atom :: acc) st.st_cells []
  |> List.sort (fun a b -> Int.compare a.Atom.id b.Atom.id)

(* The effective graph under the overlay: prepared edges that are up,
   with their current labels; every AS kept even when isolated, so a
   fresh [prepare] on this graph has the same AS universe (the
   differential properties depend on it). *)
let state_graph st =
  let net = st.st_net in
  let ov = st.st_ov in
  let n = Array.length net.ases in
  let g = ref (Array.fold_left As_graph.add_as As_graph.empty net.ases) in
  for i = 0 to n - 1 do
    for t = net.slot_base.(i) to net.slot_base.(i + 1) - 1 do
      let j = net.edge_to.(t) in
      (* Read at out-edge [t], the overlay holds [i]'s view of [j]. *)
      if j > i && ov.ov_active.(t) then
        g := As_graph.add_edge !g net.ases.(i) net.ases.(j) ov.ov_rel.(t)
    done
  done;
  !g

(* A fresh cell: its own arena, sharing the state's worklist.  Its intern
   table starts at [Path_intern.create]'s default and grows by doubling:
   a live cell holds a few hundred path cells, not one per AS. *)
let fresh_cell st atom =
  let net = st.st_net in
  make_cell ~caller:"repropagate" net (make_arena net (Path_intern.create ()) st.st_wl) atom

let repropagate net st deltas =
  if not (net == st.st_net) then
    invalid_arg "Engine.repropagate: state was built for a different network";
  let { ases; index; _ } = net in
  let ov = st.st_ov in
  (* Resolve an undirected link to its two endpoint indices and directed
     slots; deltas naming a link outside the prepared universe are
     programming errors (the geometry is fixed at prepare time).  The
     forward out-edge t (i->j) IS the slot of j's export into i, and its
     reverse [edge_slot.(t)] the slot of i's export into j. *)
  let link_slots what a b =
    let find_edge i j =
      let rec go t hi =
        if t >= hi then -1 else if net.edge_to.(t) = j then t else go (t + 1) hi
      in
      go net.slot_base.(i) net.slot_base.(i + 1)
    in
    match (Asn.Table.find_opt index a, Asn.Table.find_opt index b) with
    | Some i, Some j -> begin
        match find_edge i j with
        | -1 ->
            invalid_arg
              (Printf.sprintf "Engine.repropagate: %s names link AS%d-AS%d absent from the prepared graph"
                 what (Asn.to_int a) (Asn.to_int b))
        | t -> (i, j, net.edge_slot.(t), t)
      end
    | _ ->
        invalid_arg
          (Printf.sprintf "Engine.repropagate: %s names an AS absent from the prepared graph" what)
  in
  (* Phase 1: apply every delta to the configuration overlay (and the
     cell table), collecting the forced frontier — applying config first
     and solving once per cell is what makes a delta list and its
     coalesced form indistinguishable. *)
  let base_forced = ref [] in
  let seen_forced = Hashtbl.create 16 in
  let force_all i =
    if not (Hashtbl.mem seen_forced i) then begin
      Hashtbl.add seen_forced i ();
      base_forced := i :: !base_forced
    end
  in
  let atom_forced : int list Int_tbl.t = Int_tbl.create 8 in
  let force_atom id i =
    let prev = try Int_tbl.find atom_forced id with Not_found -> [] in
    if not (List.mem i prev) then Int_tbl.replace atom_forced id (i :: prev)
  in
  (* Change report, beside the slot writes phase 2 observes: atoms
     announced afresh or withdrawn (an isolated origin writes no slot,
     yet its table gains its own route), and the slots a [Rel_set]
     relabelled (results read [rel] from the overlay, so a relabel
     changes every atom occupying the slot without any write). *)
  let announced_or_withdrawn : unit Int_tbl.t = Int_tbl.create 8 in
  let relabelled = ref [] in
  List.iter
    (fun d ->
      match d with
      | Delta.Link_down (a, b) ->
          let i, j, s_ij, s_ji = link_slots "Link_down" a b in
          ov.ov_active.(s_ij) <- false;
          ov.ov_active.(s_ji) <- false;
          force_all i;
          force_all j
      | Delta.Link_up (a, b) ->
          let i, j, s_ij, s_ji = link_slots "Link_up" a b in
          ov.ov_active.(s_ij) <- true;
          ov.ov_active.(s_ji) <- true;
          force_all i;
          force_all j
      | Delta.Rel_set (a, b, rel) ->
          (* [a] now classifies [b] as [rel].  Slot [s_ij] holds what [a]
             (sender i) exports into [b]'s arena, so its stored
             relationship is [b]'s view of [a] — the invert — and
             symmetrically for [s_ji]. *)
          let i, j, s_ij, s_ji = link_slots "Rel_set" a b in
          let back = Relationship.invert rel in
          ov.ov_rel.(s_ij) <- back;
          ov.ov_rel_opt.(s_ij) <- Some back;
          ov.ov_class.(s_ij) <- class_code (Some back);
          ov.ov_recv_lp.(s_ij) <-
            Policy.resolve_static ov.ov_resolved.(j) ~neighbor:ases.(i) ~rel:back;
          ov.ov_rel.(s_ji) <- rel;
          ov.ov_rel_opt.(s_ji) <- Some rel;
          ov.ov_class.(s_ji) <- class_code (Some rel);
          ov.ov_recv_lp.(s_ji) <-
            Policy.resolve_static ov.ov_resolved.(i) ~neighbor:ases.(j) ~rel;
          relabelled := s_ij :: s_ji :: !relabelled;
          force_all i;
          force_all j
      | Delta.Lp_set { atom_id; holder; neighbor; lp } -> begin
          (* Same tolerance as prepare-time [lp_overrides]: an unknown
             holder is dropped.  The overlay write is global (policy
             config outlives announcements); only the named atom's cell
             needs re-solving, seeded at the sender whose exports the
             override re-prices. *)
          match Asn.Table.find_opt index holder with
          | None -> ()
          | Some h ->
              Policy.override_resolved ov.ov_resolved.(h) ~neighbor ~atom:atom_id ~lp;
              ov.ov_lp_dynamic.(h) <- true;
              (match Asn.Table.find_opt index neighbor with
              | Some s -> force_atom atom_id s
              | None -> ())
        end
      | Delta.Announce atom -> begin
          match Int_tbl.find_opt st.st_cells atom.Atom.id with
          | Some cell when Atom.equal cell.c_atom atom -> ()
          | Some _ | None ->
              (* New or structurally changed atom: solve from scratch,
                 seeded at the origin, as a batch solve is. *)
              let cell = fresh_cell st atom in
              Int_tbl.replace st.st_cells atom.Atom.id cell;
              Int_tbl.replace announced_or_withdrawn atom.Atom.id ();
              force_atom atom.Atom.id cell.c_origin_i
        end
      | Delta.Withdraw id ->
          if Int_tbl.mem st.st_cells id then
            Int_tbl.replace announced_or_withdrawn id ();
          Int_tbl.remove st.st_cells id;
          Int_tbl.remove atom_forced id)
    deltas;
  let base = List.rev !base_forced in
  (* Phase 2: re-solve the touched cells in atom-id order (cells are
     independent; the order only fixes which cell pays the shared
     worklist warm-up).  A cell with an empty frontier is untouched and
     skipped outright — the whole point of the exercise.  A solve that
     wrote no slot left the tables as they were, unless a step-capped
     solve (this one or the last) leaves bests from before the cap. *)
  let ids =
    Int_tbl.fold (fun id _ acc -> id :: acc) st.st_cells [] |> List.sort Int.compare
  in
  let relabelled = !relabelled in
  let any_announced_or_withdrawn = Int_tbl.length announced_or_withdrawn > 0 in
  let changed =
    List.filter
      (fun id ->
        let cell = Int_tbl.find st.st_cells id in
        let extra = try Int_tbl.find atom_forced id with Not_found -> [] in
        let seeds = base @ List.rev extra in
        let solved_change =
          seeds <> []
          &&
          let was_converged = cell.c_converged in
          solve ~decision:st.st_decision net ov cell seeds;
          cell.c_wrote || (not was_converged) || not cell.c_converged
        in
        solved_change
        || (any_announced_or_withdrawn && Int_tbl.mem announced_or_withdrawn id)
        || (relabelled <> [] && List.exists (fun s -> cell.c_arena.s_cand.(s) >= 0) relabelled))
      ids
  in
  (* [changed] is ascending already; only withdrawn ids are left out. *)
  let withdrawn =
    Int_tbl.fold
      (fun id () acc -> if Int_tbl.mem st.st_cells id then acc else id :: acc)
      announced_or_withdrawn []
  in
  st.st_changed <- List.merge Int.compare (List.sort Int.compare withdrawn) changed;
  st

let changed_atoms st = st.st_changed

let state_result st ~retain id =
  Option.map
    (fun cell -> cell_result st.st_net st.st_ov cell ~retain)
    (Int_tbl.find_opt st.st_cells id)

let state_results st ~retain =
  Int_tbl.fold (fun id _ acc -> id :: acc) st.st_cells []
  |> List.sort Int.compare
  |> List.filter_map (state_result st ~retain)

let best_at result a =
  match Asn.Map.find_opt a result.tables with
  | Some t -> t.best
  | None -> None

