module Prng = Rpi_prng.Prng

type kind =
  | Truncate
  | Byte_flip
  | Drop_line
  | Dup_line
  | Swap_lines
  | Shuffle_lines
  | Garbage_line
  | Splice
  | Blank

let split_lines s = String.split_on_char '\n' s
let join_lines lines = String.concat "\n" lines

let garbage rng =
  let len = Prng.int rng 60 in
  String.init len (fun _ ->
      let c = Prng.int_in rng 0 255 in
      if c = Char.code '\n' then '|' else Char.chr c)

let apply rng kind s =
  let lines = split_lines s in
  let n_lines = List.length lines in
  match kind with
  | Blank -> ""
  | Truncate ->
      if String.length s = 0 then s else String.sub s 0 (Prng.int rng (String.length s))
  | Byte_flip ->
      if String.length s = 0 then s
      else begin
        let b = Bytes.of_string s in
        Bytes.set b (Prng.int rng (Bytes.length b)) (Char.chr (Prng.int_in rng 0 255));
        Bytes.to_string b
      end
  | Drop_line ->
      let victim = Prng.int rng n_lines in
      join_lines (List.filteri (fun i _ -> i <> victim) lines)
  | Dup_line ->
      let victim = Prng.int rng n_lines in
      join_lines
        (List.concat (List.mapi (fun i l -> if i = victim then [ l; l ] else [ l ]) lines))
  | Swap_lines ->
      if n_lines < 2 then s
      else begin
        let i = Prng.int rng n_lines and j = Prng.int rng n_lines in
        let arr = Array.of_list lines in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp;
        join_lines (Array.to_list arr)
      end
  | Shuffle_lines -> join_lines (Prng.shuffle_list rng lines)
  | Garbage_line ->
      let at = Prng.int rng (n_lines + 1) in
      let rec insert i = function
        | rest when i = at -> garbage rng :: rest
        | [] -> [ garbage rng ]
        | l :: rest -> l :: insert (i + 1) rest
      in
      join_lines (insert 0 lines)
  | Splice ->
      if String.length s < 2 then s
      else begin
        let i = Prng.int rng (String.length s) in
        let j = Prng.int rng (String.length s) in
        String.sub s 0 i ^ String.sub s j (String.length s - j)
      end

let kinds =
  [
    Truncate; Byte_flip; Byte_flip; Drop_line; Dup_line; Swap_lines; Shuffle_lines;
    Garbage_line; Garbage_line; Splice; Blank;
  ]

let mutant rng s =
  let once = apply rng (Prng.choice_list rng kinds) s in
  if Prng.chance rng 0.3 then apply rng (Prng.choice_list rng kinds) once else once

let mutants rng ~count s = List.init count (fun _ -> mutant rng s)

let shrink_text s =
  if String.length s = 0 then []
  else begin
    let lines = split_lines s in
    let n = List.length lines in
    if n > 1 then begin
      let half = n / 2 in
      let firsts = List.filteri (fun i _ -> i < half) lines in
      let seconds = List.filteri (fun i _ -> i >= half) lines in
      let drops =
        if n <= 12 then
          List.init n (fun v -> join_lines (List.filteri (fun i _ -> i <> v) lines))
        else []
      in
      join_lines firsts :: join_lines seconds :: drops
    end
    else begin
      let len = String.length s in
      if len <= 1 then [ "" ]
      else [ String.sub s 0 (len / 2); String.sub s (len / 2) (len - (len / 2)) ]
    end
  end

let lines_of s = split_lines s |> List.filter (fun l -> String.length (String.trim l) > 0)

let surviving_lines ~original ~mutant =
  let originals = lines_of original in
  lines_of mutant
  |> List.filter (fun l -> List.exists (String.equal l) originals)
