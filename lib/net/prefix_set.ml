type t = unit Prefix_trie.t

let empty = Prefix_trie.empty
let is_empty = Prefix_trie.is_empty
let add p t = Prefix_trie.add p () t
let remove = Prefix_trie.remove
let mem = Prefix_trie.mem
let cardinal = Prefix_trie.cardinal
let of_list ps = List.fold_left (fun t p -> add p t) empty ps
let to_list t = Prefix_trie.keys t
let fold f t init = Prefix_trie.fold (fun p () acc -> f p acc) t init
let iter f t = Prefix_trie.iter (fun p () -> f p) t
let union a b = fold add a b
let inter a b = fold (fun p acc -> if mem p b then add p acc else acc) a empty
let diff a b = fold (fun p acc -> if mem p b then acc else add p acc) a empty
let subset a b = fold (fun p ok -> ok && mem p b) a true
let equal a b = subset a b && subset b a
let filter pred t = fold (fun p acc -> if pred p then add p acc else acc) t empty
let exists pred t = fold (fun p found -> found || pred p) t false
let for_all pred t = fold (fun p ok -> ok && pred p) t true

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

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") Prefix.pp)
    (to_list t)
