type point = { threads : int; speedup : float; result : Pipeline.result }

type series = { label : string; points : point list }

let paper_thread_counts = [ 1; 2; 4; 6; 8; 12; 16; 24; 32 ]

let sweep ?pool ?(threads = paper_thread_counts) ?(policy = Pipeline.default_policy)
    ?(config = fun ~cores -> Machine.Config.default ~cores) ~label input =
  let run_one n =
    let result = Pipeline.run (config ~cores:n) ~policy input in
    { threads = n; speedup = Pipeline.speedup result; result }
  in
  let threads = List.sort_uniq compare threads in
  (* Each sweep point is an independent simulation of the same immutable
     input, and results are gathered by thread index, so the parallel
     path returns exactly the sequential series. *)
  let points =
    match pool with
    | None -> List.map run_one threads
    | Some pool -> Parallel.Pool.map_list pool run_one threads
  in
  { label; points }

let best s =
  match s.points with
  | [] -> invalid_arg "Speedup.best: empty series"
  | p :: ps ->
    let maximum = List.fold_left (fun acc q -> max acc q.speedup) p.speedup ps in
    let good = List.filter (fun q -> q.speedup >= 0.99 *. maximum) (p :: ps) in
    List.fold_left (fun acc q -> if q.threads < acc.threads then q else acc) (List.hd good)
      good

let at_threads s n = List.find_opt (fun p -> p.threads = n) s.points

let moore_speedup ~threads =
  if threads < 1 then invalid_arg "Speedup.moore_speedup: threads must be >= 1";
  let log2 = log (float_of_int threads) /. log 2.0 in
  1.4 ** log2

let pp_series ppf s =
  Format.fprintf ppf "%s:@." s.label;
  List.iter
    (fun p -> Format.fprintf ppf "  %2d threads: %.2fx@." p.threads p.speedup)
    s.points
