module Exp = Rpi_experiments.Exp
module Context = Rpi_experiments.Context
module Table = Rpi_stats.Table
module Json = Rpi_json
module Pool = Rpi_pool.Pool

type timed = { outcome : Exp.outcome; elapsed_s : float }

type report = {
  jobs : int;
  wall_clock_s : float;
  schedule : string list;
  results : timed list;
}

let default_jobs = Pool.default_jobs

let now = Unix.gettimeofday

let run_one ctx (exp : Exp.t) =
  let t0 = now () in
  let outcome = exp.Exp.run ctx in
  { outcome; elapsed_s = now () -. t0 }

let run ?jobs ctx exps =
  let requested = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let exps = Array.of_list exps in
  let n = Array.length exps in
  let jobs = min requested (max 1 n) in
  let t0 = now () in
  (* Hand-out order for the work-stealing loop: most expensive first
     (stable on the declaration index for equal costs), so the batch never
     ends with one long experiment overhanging on an otherwise idle pool.
     A single domain keeps declaration order — the hint cannot help there,
     and the sequential trace stays the familiar one. *)
  let order = Array.init n (fun i -> i) in
  if jobs > 1 then
    Array.sort
      (fun a b ->
        match Float.compare exps.(b).Exp.cost exps.(a).Exp.cost with
        | 0 -> Int.compare a b
        | c -> c)
      order;
  (* Each slot is written by exactly one domain (indices are handed out by
     the atomic counter), and read only after every domain is joined. *)
  let slots = Array.make n None in
  if jobs = 1 then
    Array.iteri (fun i exp -> slots.(i) <- Some (Ok (run_one ctx exp))) exps
  else begin
    let next = Atomic.make 0 in
    let worker _id =
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n then begin
          let i = order.(k) in
          slots.(i) <-
            Some
              (try Ok (run_one ctx exps.(i))
               with e -> Error (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    Pool.run ~jobs worker
  end;
  let results =
    Array.to_list slots
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  in
  let schedule = Array.to_list (Array.map (fun i -> exps.(i).Exp.id) order) in
  { jobs; wall_clock_s = now () -. t0; schedule; results }

let render report =
  String.concat "\n" (List.map (fun r -> r.outcome.Exp.rendered) report.results)

let table_to_json t =
  let title =
    match Table.title t with Some s -> [ ("title", Json.String s) ] | None -> []
  in
  Json.Obj
    (title
    @ [
        ( "columns",
          Json.List
            (List.map
               (fun (name, align) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ( "align",
                       Json.String
                         (match align with Table.Left -> "left" | Table.Right -> "right") );
                   ])
               (Table.columns t)) );
        ( "rows",
          Json.List
            (List.map
               (fun row -> Json.List (List.map (fun c -> Json.String c) row))
               (Table.rows t)) );
      ])

let outcome_to_json (o : Exp.outcome) =
  Json.Obj
    [
      ("id", Json.String o.Exp.id);
      ("title", Json.String o.Exp.title);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.Exp.metrics));
      ("tables", Json.List (List.map table_to_json o.Exp.tables));
    ]

let timed_to_json { outcome; elapsed_s } =
  match outcome_to_json outcome with
  | Json.Obj fields -> Json.Obj (fields @ [ ("elapsed_s", Json.Float elapsed_s) ])
  | other -> other
