type edge = {
  src : int;
  dst : int;
  speculated : bool;
  src_offset : int;
  dst_offset : int;
}

type index = {
  a_of : int array;
  c_of : int array;
  b_off : int array;
  b_ids : int array;
  b_dispatch : int array;
  t_work : int array;
  t_phase : int array;
  t_iter : int array;
  t_intra : int array;
  e_src : int array;
  e_dst : int array;
  e_spec : int array;
  e_soff : int array;
  e_doff : int array;
  in_off : int array;
  in_idx : int array;
  out_off : int array;
  out_idx : int array;
}

type cache = index option Atomic.t

type loop = {
  name : string;
  tasks : Ir.Task.t array;
  edges : edge list;
  iters : int;
  cache : cache;
}

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
  { name; tasks; edges = merge_edges n edges; iters; cache = Atomic.make None }

let make ~name ~segments = { program_name = name; segments }

let loop_work loop = Ir.Task.total_work loop.tasks

let iterations loop = loop.iters

let phase_code = function Ir.Task.A -> 0 | Ir.Task.B -> 1 | Ir.Task.C -> 2

(* Edge numbers grouped by [key.(k)] (a task id) in compressed form.
   Each group is filled from its end, so it lists its edges in reverse
   edge order: the order in which the simulator's squash walk re-queues
   consumers and Critpath picks the edge that justifies a start. *)
let csr n key =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun v -> off.(v + 1) <- off.(v + 1) + 1) key;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let idx = Array.make (Array.length key) 0 in
  let cur = Array.sub off 1 n in
  Array.iteri
    (fun k v ->
      cur.(v) <- cur.(v) - 1;
      idx.(cur.(v)) <- k)
    key;
  (off, idx)

let build_index loop =
  let tasks = loop.tasks and iters = loop.iters in
  let n = Array.length tasks in
  let t_work = Array.map (fun (t : Ir.Task.t) -> t.Ir.Task.work) tasks in
  let t_phase = Array.map (fun (t : Ir.Task.t) -> phase_code t.Ir.Task.phase) tasks in
  let t_iter = Array.map (fun (t : Ir.Task.t) -> t.Ir.Task.iteration) tasks in
  let t_intra = Array.map (fun (t : Ir.Task.t) -> t.Ir.Task.intra) tasks in
  let a_of = Array.make iters (-1) and c_of = Array.make iters (-1) in
  let b_off = Array.make (iters + 1) 0 in
  for t = 0 to n - 1 do
    let i = t_iter.(t) in
    match t_phase.(t) with
    | 0 -> a_of.(i) <- t
    | 2 -> c_of.(i) <- t
    | _ -> b_off.(i + 1) <- b_off.(i + 1) + 1
  done;
  for i = 0 to iters - 1 do
    b_off.(i + 1) <- b_off.(i + 1) + b_off.(i)
  done;
  let b_ids = Array.make b_off.(iters) 0 in
  let next = Array.sub b_off 0 iters in
  for t = n - 1 downto 0 do
    if t_phase.(t) = 1 then begin
      let i = t_iter.(t) in
      b_ids.(next.(i)) <- t;
      next.(i) <- next.(i) + 1
    end
  done;
  (* Ascending intra; the sort is stable, so ties keep [b_ids]'
     descending id. *)
  let b_dispatch = Array.copy b_ids in
  for i = 0 to iters - 1 do
    let lo = b_off.(i) and hi = b_off.(i + 1) in
    let seg = Array.sub b_ids lo (hi - lo) in
    Array.stable_sort (fun x y -> Int.compare t_intra.(x) t_intra.(y)) seg;
    Array.blit seg 0 b_dispatch lo (hi - lo)
  done;
  let es = Array.of_list loop.edges in
  let e_src = Array.map (fun e -> e.src) es and e_dst = Array.map (fun e -> e.dst) es in
  let in_off, in_idx = csr n e_dst and out_off, out_idx = csr n e_src in
  {
    a_of;
    c_of;
    b_off;
    b_ids;
    b_dispatch;
    t_work;
    t_phase;
    t_iter;
    t_intra;
    e_src;
    e_dst;
    e_spec = Array.map (fun e -> if e.speculated then 1 else 0) es;
    e_soff = Array.map (fun e -> e.src_offset) es;
    e_doff = Array.map (fun e -> e.dst_offset) es;
    in_off;
    in_idx;
    out_off;
    out_idx;
  }

(* Built on first use and published with one compare-and-set: a builder
   that loses a race drops its copy and returns the winner's. *)
let index loop =
  match Atomic.get loop.cache with
  | Some ix -> ix
  | None ->
    let ix = build_index loop in
    if Atomic.compare_and_set loop.cache None (Some ix) then ix
    else Option.get (Atomic.get loop.cache)

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
