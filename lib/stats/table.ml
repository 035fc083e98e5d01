type align = Left | Right

type t = {
  title : string option;
  headers : (string * align) list;
  mutable rows : string list list;  (* reversed *)
}

let create ?title headers = { title; headers; rows = [] }

let title t = t.title
let columns t = t.headers
let rows t = List.rev t.rows

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let headers = List.map fst t.headers in
  let aligns = List.map snd t.headers in
  let widths =
    List.fold_left
      (fun widths row -> List.map2 (fun w cell -> max w (String.length cell)) widths row)
      (List.map String.length headers)
      rows
  in
  let pad align width cell =
    let gap = width - String.length cell in
    match align with
    | Left -> cell ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ cell
  in
  let render_row row =
    let cells = List.map2 (fun (w, a) c -> pad a w c) (List.combine widths aligns) row in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule = "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+" in
  let buf = Buffer.create 512 in
  begin
    match t.title with
    | Some title ->
        Buffer.add_string buf title;
        Buffer.add_char buf '\n'
    | None -> ()
  end;
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let cell_int = string_of_int
let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
let cell_pct ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals v
