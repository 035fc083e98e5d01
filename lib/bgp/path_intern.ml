(* Hash-consed AS paths.  A path is a cons-list of (head ASN, tail id)
   cells; interning maps each distinct cell to a small int, so two equal
   paths always carry the same id and equality is integer equality.
   Length, origin and a membership bloom are memoized per cell at
   construction, which is what lets the propagation engine compare and
   loop-check candidates without ever walking a list.

   A table is append-only and single-domain: the engine creates one per
   propagation run, so ids are meaningful only relative to their table and
   must never be serialized or shared across runs. *)

type id = int

let nil = 0

type stats = { hits : int; misses : int; unique : int }

(* Per-run scratch, never shared across domains (each propagation run owns
   its table), so the mutable fields are safe by construction. *)
type t = {
  (* rpilint: allow mutable-toplevel *)
  mutable heads : int array;  (* head ASN per cell; -1 for nil *)
  mutable tails : int array;  (* tail id per cell; -1 for nil *)
  mutable lens : int array;  (* memoized path length *)
  mutable masks : int array;  (* membership bloom over the whole path *)
  mutable slots : int array;  (* open-addressing (head, tail) -> id; -1 empty *)
  mutable slot_mask : int;  (* Array.length slots - 1, a power of two *)
  mutable next : int;  (* next fresh id; ids 1 .. next-1 are live *)
  mutable hits : int;
  mutable misses : int;
}

let member_bit asn = 1 lsl (asn * 0x9E3779B1 land max_int mod 63)
let cell_hash head tail = (head * 0x9E3779B1) lxor (tail * 0x61C88647) land max_int

let create ?(capacity = 64) () =
  let cap = max 16 capacity in
  let rec pow2 c = if c >= 2 * cap then c else pow2 (2 * c) in
  let slot_cap = pow2 32 in
  let cells v = Array.make cap v in
  {
    heads = cells (-1);
    tails = cells (-1);
    lens = cells 0;
    masks = cells 0;
    slots = Array.make slot_cap (-1);
    slot_mask = slot_cap - 1;
    next = 1;
    hits = 0;
    misses = 0;
  }

(* Index of the slot holding (head, tail), or of the empty slot where it
   belongs.  Load factor stays under 1/2, so the linear probe terminates.
   A [while] over a local cursor, not a local recursive function: that
   would close over six values and allocate a closure on every call. *)
let[@rpilint.hot] probe ~slots ~slot_mask ~heads ~tails head tail =
  (* rpilint: allow hot-path-alloc (an uncaptured local ref stays in a register) *)
  let idx = ref (cell_hash head tail land slot_mask) in
  while
    let s = slots.(!idx) in
    s >= 0 && not (heads.(s) = head && tails.(s) = tail)
  do
    idx := (!idx + 1) land slot_mask
  done;
  !idx

let grow_cells t =
  let cap = Array.length t.heads in
  let double a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.heads <- double t.heads (-1);
  t.tails <- double t.tails (-1);
  t.lens <- double t.lens 0;
  t.masks <- double t.masks 0

let grow_slots t =
  let slot_cap = 2 * Array.length t.slots in
  let slots = Array.make slot_cap (-1) in
  let slot_mask = slot_cap - 1 in
  for s = 1 to t.next - 1 do
    let idx =
      probe ~slots ~slot_mask ~heads:t.heads ~tails:t.tails t.heads.(s) t.tails.(s)
    in
    slots.(idx) <- s
  done;
  t.slots <- slots;
  t.slot_mask <- slot_mask

let[@rpilint.hot] cons t head tail =
  let h = Asn.to_int head in
  let idx = probe ~slots:t.slots ~slot_mask:t.slot_mask ~heads:t.heads ~tails:t.tails h tail in
  let found = t.slots.(idx) in
  if found >= 0 then begin
    t.hits <- t.hits + 1;
    found
  end
  else begin
    t.misses <- t.misses + 1;
    let id = t.next in
    t.next <- id + 1;
    if id >= Array.length t.heads then grow_cells t;
    t.heads.(id) <- h;
    t.tails.(id) <- tail;
    t.lens.(id) <- t.lens.(tail) + 1;
    t.masks.(id) <- t.masks.(tail) lor member_bit h;
    t.slots.(idx) <- id;
    if 2 * t.next >= Array.length t.slots then grow_slots t;
    id
  end

(* Forget every interned path but keep the grown arrays: a reset table
   behaves exactly like a fresh [create] with the accumulated capacity,
   which is what lets a solver scratch be reused across atoms without
   re-paying growth.  Cell row 0 is the nil sentinel and its memoized
   fields (lens 0, masks 0) are established by [create] and
   never overwritten — [cons] only writes ids >= 1 — so only the slot
   table and counters need clearing. *)
let reset t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.next <- 1;
  t.hits <- 0;
  t.misses <- 0

let rec cons_n t head n tail = if n <= 0 then tail else cons_n t head (n - 1) (cons t head tail)
let of_list t path = List.fold_right (fun a id -> cons t a id) path nil

let rec to_list t id =
  if id = nil then [] else Asn.of_int t.heads.(id) :: to_list t t.tails.(id)

let length t id = t.lens.(id)
let equal (a : id) b = Int.equal a b

let[@rpilint.hot] mem t asn id =
  let x = Asn.to_int asn in
  if t.masks.(id) land member_bit x = 0 then false
  else begin
    let heads = t.heads and tails = t.tails in
    (* rpilint: allow hot-path-alloc (an uncaptured local ref stays in a register) *)
    let cur = ref id in
    while !cur <> nil && heads.(!cur) <> x do
      cur := tails.(!cur)
    done;
    !cur <> nil
  end

(* Lexicographic over the stored ASNs — [Asn.compare] is numeric, so
   comparing the raw ints is the same order ([List.compare Asn.compare] on
   the corresponding lists). *)
let[@rpilint.hot] compare_lex t a b =
  let heads = t.heads and tails = t.tails in
  (* rpilint: allow hot-path-alloc (an uncaptured local ref stays in a register) *)
  let a = ref a and b = ref b and c = ref 0 in
  while !c = 0 && !a <> !b do
    if !a = nil then c := -1
    else if !b = nil then c := 1
    else begin
      c := Int.compare heads.(!a) heads.(!b);
      a := tails.(!a);
      b := tails.(!b)
    end
  done;
  !c

let stats t = { hits = t.hits; misses = t.misses; unique = t.next - 1 }
