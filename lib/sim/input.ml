type edge = {
  src : int;
  dst : int;
  speculated : bool;
  src_offset : int;
  dst_offset : int;
}

type loop = { name : string; tasks : Ir.Task.t array; edges : edge list }

type segment = Serial of int | Parallel of loop

type t = { program_name : string; segments : segment list }

(* Duplicate (src, dst) pairs merge into the place of the pair's first
   edge, keeping the strongest combination: a synchronized edge
   dominates a speculated one, the tightest offsets dominate.  Edges are
   bucketed by dst (a counting sort over the [n] task ids, stable), and
   within a bucket [first_of] finds each src's first edge. *)
let merge_edges n edges =
  let es = Array.of_list edges in
  let ne = Array.length es in
  let off = Array.make (n + 1) 0 in
  Array.iter (fun e -> off.(e.dst + 1) <- off.(e.dst + 1) + 1) es;
  for t = 0 to n - 1 do
    off.(t + 1) <- off.(t + 1) + off.(t)
  done;
  let by_dst = Array.make ne 0 in
  let next = Array.sub off 0 n in
  Array.iteri
    (fun k e ->
      by_dst.(next.(e.dst)) <- k;
      next.(e.dst) <- next.(e.dst) + 1)
    es;
  let absorbed = Array.make ne false in
  let first_of = Array.make n (-1) and bucket_of = Array.make n (-1) in
  for d = 0 to n - 1 do
    for j = off.(d) to off.(d + 1) - 1 do
      let k = by_dst.(j) in
      let e = es.(k) in
      if bucket_of.(e.src) <> d then begin
        bucket_of.(e.src) <- d;
        first_of.(e.src) <- k
      end
      else begin
        let f = first_of.(e.src) in
        let old = es.(f) in
        es.(f) <-
          {
            old with
            speculated = old.speculated && e.speculated;
            src_offset = Int.max old.src_offset e.src_offset;
            dst_offset = Int.min old.dst_offset e.dst_offset;
          };
        absorbed.(k) <- true
      end
    done
  done;
  let out = ref [] in
  for k = ne - 1 downto 0 do
    if not absorbed.(k) then out := es.(k) :: !out
  done;
  !out

let make_loop ~name ~tasks ~edges =
  let n = Array.length tasks in
  Array.iteri
    (fun i (t : Ir.Task.t) ->
      if t.Ir.Task.id <> i then invalid_arg "Input.make_loop: task id mismatch")
    tasks;
  let iters = Array.fold_left (fun acc (t : Ir.Task.t) -> max acc (t.Ir.Task.iteration + 1)) 0 tasks in
  let a_count = Array.make iters 0 and c_count = Array.make iters 0 in
  Array.iter
    (fun (t : Ir.Task.t) ->
      match t.Ir.Task.phase with
      | Ir.Task.A -> a_count.(t.Ir.Task.iteration) <- a_count.(t.Ir.Task.iteration) + 1
      | Ir.Task.C -> c_count.(t.Ir.Task.iteration) <- c_count.(t.Ir.Task.iteration) + 1
      | Ir.Task.B -> ())
    tasks;
  Array.iteri
    (fun i c ->
      if c > 1 then
        invalid_arg (Printf.sprintf "Input.make_loop: iteration %d has %d A tasks" i c))
    a_count;
  Array.iteri
    (fun i c ->
      if c > 1 then
        invalid_arg (Printf.sprintf "Input.make_loop: iteration %d has %d C tasks" i c))
    c_count;
  List.iter
    (fun e ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n || e.src = e.dst then
        invalid_arg "Input.make_loop: bad edge")
    edges;
  { name; tasks; edges = merge_edges n edges }

let make ~name ~segments = { program_name = name; segments }

let loop_work loop = Ir.Task.total_work loop.tasks

let iterations loop =
  Array.fold_left (fun acc (t : Ir.Task.t) -> max acc (t.Ir.Task.iteration + 1)) 0 loop.tasks

let total_work t =
  List.fold_left
    (fun acc -> function Serial w -> acc + w | Parallel l -> acc + loop_work l)
    0 t.segments

let pp_summary ppf t =
  Format.fprintf ppf "program %s: total work %d@." t.program_name (total_work t);
  List.iter
    (function
      | Serial w -> Format.fprintf ppf "  serial %d@." w
      | Parallel l ->
        let spec = List.length (List.filter (fun e -> e.speculated) l.edges) in
        Format.fprintf ppf "  loop %s: %d tasks / %d iterations, work %d, edges %d (%d spec)@."
          l.name (Array.length l.tasks) (iterations l) (loop_work l) (List.length l.edges)
          spec)
    t.segments
