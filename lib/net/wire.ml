let to_string print v =
  let buf = Buffer.create 16 in
  print buf v;
  Buffer.contents buf

let of_string read s = read s ~pos:0 ~len:(String.length s)

(* Digits of a non-positive [n], most significant first: working on the
   negative side covers [min_int], whose negation overflows. *)
let[@rpilint.hot] rec add_nonpositive buf n =
  if n <= -10 then add_nonpositive buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let[@rpilint.hot] add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpositive buf n
  end
  else add_nonpositive buf (-n)

let[@rpilint.hot] rec nonpositive_length n =
  if n <= -10 then 1 + nonpositive_length (n / 10) else 1

let[@rpilint.hot] int_length n =
  if n < 0 then 1 + nonpositive_length n else nonpositive_length (-n)

let[@rpilint.hot] rec digits_from s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> digits_from s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

let[@rpilint.hot] digits s ~pos ~len =
  if len < 1 || len > 18 || pos < 0 || pos > String.length s - len then -1
  else digits_from s pos (pos + len) 0

let int_of_substring s ~pos ~len =
  match digits s ~pos ~len with
  | -1 -> int_of_string_opt (String.sub s pos len)
  | n -> Some n

let[@rpilint.hot] rec same_from s pos lit i =
  i = String.length lit || (Char.equal s.[pos + i] lit.[i] && same_from s pos lit (i + 1))

let[@rpilint.hot] substring_is s ~pos ~len lit =
  len = String.length lit && same_from s pos lit 0

let[@rpilint.hot] rec find s i stop c =
  if i >= stop || Char.equal s.[i] c then i else find s (i + 1) stop c

let[@rpilint.hot] rec skip s i stop c =
  if i < stop && Char.equal s.[i] c then skip s (i + 1) stop c else i

let is_blank = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let[@rpilint.hot] rec skip_blank s i stop =
  if i < stop && is_blank s.[i] then skip_blank s (i + 1) stop else i

let[@rpilint.hot] rec skip_blank_back s i stop =
  if stop > i && is_blank s.[stop - 1] then skip_blank_back s i (stop - 1) else stop
