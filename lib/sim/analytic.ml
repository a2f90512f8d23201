let structural_edges (loop : Input.loop) =
  (* Reconstruct the pipeline's implicit dependence structure:
     the A chain, A_i -> each B of i, each B of i -> C_i, the C chain. *)
  let iters = Input.iterations loop in
  let a = Array.make iters None and c = Array.make iters None in
  let bs = Array.make iters [] in
  Array.iter
    (fun (t : Ir.Task.t) ->
      match t.Ir.Task.phase with
      | Ir.Task.A -> a.(t.Ir.Task.iteration) <- Some t.Ir.Task.id
      | Ir.Task.C -> c.(t.Ir.Task.iteration) <- Some t.Ir.Task.id
      | Ir.Task.B -> bs.(t.Ir.Task.iteration) <- t.Ir.Task.id :: bs.(t.Ir.Task.iteration))
    loop.Input.tasks;
  let edges = ref [] in
  let add s d = edges := (s, d) :: !edges in
  let last_a = ref None and last_c = ref None in
  for i = 0 to iters - 1 do
    (match (!last_a, a.(i)) with Some p, Some q -> add p q | _ -> ());
    (match a.(i) with Some _ as x -> last_a := x | None -> ());
    (match a.(i) with
    | Some ai -> List.iter (fun b -> add ai b) bs.(i)
    | None -> ());
    (match c.(i) with
    | Some ci ->
      List.iter (fun b -> add b ci) bs.(i);
      (match !last_c with Some p -> add p ci | None -> ());
      last_c := Some ci
    | None -> ())
  done;
  !edges

let critical_path (loop : Input.loop) =
  let n = Array.length loop.Input.tasks in
  if n = 0 then 0
  else begin
    let adj = Array.make n [] in
    let indeg = Array.make n 0 in
    let add (s, d) =
      adj.(s) <- d :: adj.(s);
      indeg.(d) <- indeg.(d) + 1
    in
    List.iter add (structural_edges loop);
    List.iter (fun (e : Input.edge) -> add (e.Input.src, e.Input.dst)) loop.Input.edges;
    (* Longest path via topological order (Kahn). *)
    let dist = Array.init n (fun i -> loop.Input.tasks.(i).Ir.Task.work) in
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then Queue.add i queue
    done;
    let seen = ref 0 in
    let best = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      incr seen;
      if dist.(v) > !best then best := dist.(v);
      List.iter
        (fun w ->
          let cand = dist.(v) + loop.Input.tasks.(w).Ir.Task.work in
          if cand > dist.(w) then dist.(w) <- cand;
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then Queue.add w queue)
        adj.(v)
    done;
    if !seen <> n then invalid_arg "Analytic.critical_path: dependence cycle";
    !best
  end

let phase_work (loop : Input.loop) =
  Array.fold_left
    (fun (a, b, c) (t : Ir.Task.t) ->
      match t.Ir.Task.phase with
      | Ir.Task.A -> (a + t.Ir.Task.work, b, c)
      | Ir.Task.B -> (a, b + t.Ir.Task.work, c)
      | Ir.Task.C -> (a, b, c + t.Ir.Task.work))
    (0, 0, 0) loop.Input.tasks

let b_throughput cfg b_work =
  let b_cores = max 1 (Dswp.Planner.b_core_count cfg) in
  (b_work + b_cores - 1) / b_cores

let stage_bound cfg loop =
  let wa, wb, wc = phase_work loop in
  max wa (max wc (b_throughput cfg wb))

let lower_bound cfg loop = max (critical_path loop) (stage_bound cfg loop)

let upper_bound loop = Input.loop_work loop
