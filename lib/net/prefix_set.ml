type t = unit Prefix_trie.t

let empty = Prefix_trie.empty
let add p t = Prefix_trie.add p () t
let mem = Prefix_trie.mem
let cardinal = Prefix_trie.cardinal
let of_list ps = List.fold_left (fun t p -> add p t) empty ps
let fold f t init = Prefix_trie.fold (fun p () acc -> f p acc) t init
let union a b = fold add a b
let inter a b = fold (fun p acc -> if mem p b then add p acc else acc) a empty
let diff a b = fold (fun p acc -> if mem p b then acc else add p acc) a empty
let subset a b = fold (fun p ok -> ok && mem p b) a true
let equal a b = subset a b && subset b a

let covers_address t addr =
  match Prefix_trie.longest_match addr t with
  | Some _ -> true
  | None -> false

let any_strictly_subsuming p t =
  let supers = Prefix_trie.supernets_of p t in
  let strict = List.filter (fun (q, ()) -> Prefix.strictly_subsumes q p) supers in
  match strict with
  | (q, ()) :: _ -> Some q
  | [] -> None

let more_specifics p t = List.map fst (Prefix_trie.strict_more_specifics p t)

let aggregable_pairs t =
  fold
    (fun p acc ->
      (* Consider only the low sibling to report each pair once. *)
      match Prefix.supernet p with
      | None -> acc
      | Some parent ->
          if Prefix.equal (Prefix.make (Prefix.network parent) (Prefix.length p)) p then begin
            match Prefix.split parent with
            | Some (lo, hi) when Prefix.equal lo p && mem hi t -> (lo, hi, parent) :: acc
            | Some _ | None -> acc
          end
          else acc)
    t []
