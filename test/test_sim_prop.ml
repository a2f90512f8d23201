(* Randomized properties of the simulator, the loop index and the TLS
   plan against their references. *)

module G = QCheck2.Gen
module R = Check.Runner
module GI = Check.Gen_ir

(* Deterministic in-place Fisher-Yates over [idx], driven by a local
   LCG so the shuffle depends only on [salt]. *)
let shuffle salt idx =
  let state = ref (salt land 0x3FFFFFFF) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = Array.length idx - 1 downto 1 do
    let j = next (i + 1) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done

(* Reorder tasks within each iteration block, renumber ids to the new
   indices, and remap edge endpoints accordingly. *)
let permute_within_iterations salt (loop : Sim.Input.loop) =
  let tasks = loop.Sim.Input.tasks in
  let n = Array.length tasks in
  let by_iter : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let iters = ref [] in
  Array.iteri
    (fun i (tk : Ir.Task.t) ->
      match Hashtbl.find_opt by_iter tk.Ir.Task.iteration with
      | Some l -> l := i :: !l
      | None ->
        Hashtbl.add by_iter tk.Ir.Task.iteration (ref [ i ]);
        iters := tk.Ir.Task.iteration :: !iters)
    tasks;
  let order = Array.make n 0 in
  let pos = ref 0 in
  List.iter
    (fun it ->
      let idx = Array.of_list (List.rev !(Hashtbl.find by_iter it)) in
      shuffle (salt + it) idx;
      Array.iter
        (fun i ->
          order.(!pos) <- i;
          incr pos)
        idx)
    (List.sort compare !iters);
  let inv = Array.make n 0 in
  Array.iteri (fun k i -> inv.(i) <- k) order;
  let tasks' =
    Array.init n (fun k ->
        let tk = tasks.(order.(k)) in
        Ir.Task.make ~id:k ~iteration:tk.Ir.Task.iteration
          ~phase:tk.Ir.Task.phase ~intra:tk.Ir.Task.intra
          ~work:tk.Ir.Task.work ())
  in
  let edges' =
    List.map
      (fun (e : Sim.Input.edge) ->
        { e with Sim.Input.src = inv.(e.Sim.Input.src); dst = inv.(e.Sim.Input.dst) })
      loop.Sim.Input.edges
  in
  Sim.Input.make_loop ~name:loop.Sim.Input.name ~tasks:tasks' ~edges:edges'

(* Property: the simulator takes every decision the reference rescan
   simulator (test/ref_sim.ml) takes.  Random loops, widened toward the
   registry's shapes: forwarding offsets, iterations without B tasks,
   edges in fans that share a producer or a consumer (so one producer
   squashes several started consumers, in the index's out-edge order),
   and extra cross-iteration edges that may leave or enter A and C
   tasks; 1-12 cores (2, where A and C share a core, drawn often), queue
   capacity down to 1, latency 0-7 and all four policies.  The
   loop_result and the recorded event stream, Wake events included, are
   equal — or both runs deadlock with the same message after the same
   events. *)

type sim_case = {
  desc : GI.loop_desc;
  no_b : int list;  (* iterations whose B tasks are dropped *)
  extra : (int * int * bool * int * int) list;
      (* (src, dst, speculated, src_offset, dst_offset), endpoints in
         thousandths of the task count; kept when src's iteration is
         before dst's *)
  cfg : Machine.Config.t;
  policy : Sim.Sched.policy;
}

let print_sim_case c =
  let misspec =
    match c.policy.Sim.Sched.misspec with
    | Sim.Sched.Serialize -> "serialize"
    | Sim.Sched.Squash -> "squash"
  in
  Format.asprintf "%a misspec=%s fwd=%b no_b=[%s] extra=[%s]@ %a" Machine.Config.pp c.cfg
    misspec c.policy.Sim.Sched.forwarding
    (String.concat ";" (List.map string_of_int c.no_b))
    (String.concat ";"
       (List.map
          (fun (a, b, spec, so, dofs) -> Printf.sprintf "%d->%d%s so=%d do=%d" a b
              (if spec then " spec" else "") so dofs)
          c.extra))
    GI.pp_loop_desc c.desc

let sim_case =
  let open G in
  let* desc = GI.loop_desc ~max_iters:16 ~max_bs:4 ~edge_factor:12 ~offsets:true () in
  let* no_b = list_size (int_range 0 3) (int_range 0 15) in
  let edge =
    let* a = int_range 0 999 and* b = int_range 0 999 and* spec = bool in
    let* so = int_range 0 20 and* dofs = int_range 0 20 in
    return (a, b, spec, so, dofs)
  in
  let* extra = list_size (int_range 0 6) edge in
  let* cores = oneof [ return 2; int_range 1 12 ] in
  let* cap = oneof [ int_range 1 4; int_range 1 32 ] in
  let* lat = int_range 0 7 in
  let* policy = GI.policy in
  return
    {
      desc;
      no_b;
      extra;
      cfg = Machine.Config.make ~cores ~queue_capacity:cap ~comm_latency:lat ();
      policy;
    }

let build_case c =
  let desc =
    {
      c.desc with
      GI.ld_iters =
        List.mapi (fun i (a, bs, cw) -> (a, (if List.mem i c.no_b then [] else bs), cw))
          c.desc.GI.ld_iters;
    }
  in
  let l = GI.build_loop desc in
  let tasks = l.Sim.Input.tasks in
  let n = Array.length tasks in
  let iter k = tasks.(k).Ir.Task.iteration in
  let extra =
    List.filter_map
      (fun (a, b, speculated, src_offset, dst_offset) ->
        let src = a * n / 1000 and dst = b * n / 1000 in
        if n > 0 && iter src < iter dst then
          Some { Sim.Input.src; dst; speculated; src_offset; dst_offset }
        else None)
      c.extra
  in
  Sim.Input.make_loop ~name:"gen" ~tasks ~edges:(l.Sim.Input.edges @ extra)

let recorded simulate =
  let rec_ = Obs.Sink.recorder () in
  let outcome =
    match simulate (Obs.Sink.record rec_) with
    | r -> Ok r
    | exception Failure m -> Error m
  in
  (outcome, Obs.Sink.events rec_)

let () =
  R.run_prop_exn ~print:print_sim_case ~name:"simulator = reference rescan simulator" sim_case
    (fun c ->
      let loop = build_case c and cfg = c.cfg and policy = c.policy in
      recorded (fun obs -> Sim.Pipeline.run_loop cfg ~policy ~validate:false ~obs loop)
      = recorded (fun obs -> Ref_sim.simulate_loop cfg ~policy ~obs loop))

(* Property: Input.index equals a naive derivation from the loop's tasks
   and edges, in each order input.mli documents — B tasks by descending
   id and in dispatch order (ascending intra, ties by descending id),
   in- and out-edges in reverse edge order — and a second call returns
   the cached index. *)
let naive_index_matches (l : Sim.Input.loop) =
  let ix = Sim.Input.index l in
  let tasks = Array.to_list l.Sim.Input.tasks in
  let edges = List.mapi (fun k e -> (k, e)) l.Sim.Input.edges in
  let iters =
    List.fold_left (fun acc (t : Ir.Task.t) -> max acc (t.Ir.Task.iteration + 1)) 0 tasks
  in
  let of_iter i phase =
    List.filter
      (fun (t : Ir.Task.t) -> t.Ir.Task.iteration = i && t.Ir.Task.phase = phase)
      tasks
  in
  let id_or_none = function [ (t : Ir.Task.t) ] -> t.Ir.Task.id | _ -> -1 in
  let b_in order i =
    List.map (fun (t : Ir.Task.t) -> t.Ir.Task.id) (List.sort order (of_iter i Ir.Task.B))
  in
  let by_id_desc (x : Ir.Task.t) (y : Ir.Task.t) = compare y.Ir.Task.id x.Ir.Task.id in
  let by_dispatch (x : Ir.Task.t) (y : Ir.Task.t) =
    compare (x.Ir.Task.intra, y.Ir.Task.id) (y.Ir.Task.intra, x.Ir.Task.id)
  in
  let b_before i =
    List.length
      (List.filter
         (fun (t : Ir.Task.t) -> t.Ir.Task.phase = Ir.Task.B && t.Ir.Task.iteration < i)
         tasks)
  in
  let field f = List.map f tasks and edge_field f = List.map (fun (_, e) -> f e) edges in
  let group off idx t = Array.to_list (Array.sub idx off.(t) (off.(t + 1) - off.(t))) in
  let naive_group key t =
    List.rev (List.filter_map (fun (k, e) -> if key e = t then Some k else None) edges)
  in
  let all_tasks = List.init (List.length tasks) Fun.id in
  let open Sim.Input in
  l.iters = iters
  && Array.to_list ix.a_of = List.init iters (fun i -> id_or_none (of_iter i Ir.Task.A))
  && Array.to_list ix.c_of = List.init iters (fun i -> id_or_none (of_iter i Ir.Task.C))
  && Array.to_list ix.b_off = List.init (iters + 1) b_before
  && Array.to_list ix.b_ids = List.concat (List.init iters (b_in by_id_desc))
  && Array.to_list ix.b_dispatch = List.concat (List.init iters (b_in by_dispatch))
  && Array.to_list ix.t_work = field (fun t -> t.Ir.Task.work)
  && Array.to_list ix.t_phase
     = field (fun t -> match t.Ir.Task.phase with Ir.Task.A -> 0 | Ir.Task.B -> 1 | Ir.Task.C -> 2)
  && Array.to_list ix.t_iter = field (fun t -> t.Ir.Task.iteration)
  && Array.to_list ix.t_intra = field (fun t -> t.Ir.Task.intra)
  && Array.to_list ix.e_src = edge_field (fun e -> e.src)
  && Array.to_list ix.e_dst = edge_field (fun e -> e.dst)
  && Array.to_list ix.e_spec = edge_field (fun e -> if e.speculated then 1 else 0)
  && Array.to_list ix.e_soff = edge_field (fun e -> e.src_offset)
  && Array.to_list ix.e_doff = edge_field (fun e -> e.dst_offset)
  && List.for_all
       (fun t ->
         group ix.in_off ix.in_idx t = naive_group (fun e -> e.dst) t
         && group ix.out_off ix.out_idx t = naive_group (fun e -> e.src) t)
       all_tasks
  && index l == ix

let () =
  R.run_prop_exn ~print:print_sim_case ~name:"Input.index = naive derivation" sim_case (fun c ->
      naive_index_matches (build_case c))

(* Property: the TLS plan takes the figures of its verbatim reference
   (test/ref_tls.ml) on the same loops, with tied and descending intra
   values, offsets and edges into A and C tasks, at 1-12 cores; and on
   a copy whose tasks are shuffled within each iteration, so that a C
   task can precede B tasks of its own intra in id order. *)
let () =
  R.run_prop_exn ~print:print_sim_case ~name:"Tls_plan = reference" sim_case (fun c ->
      let loop = build_case c in
      let shuffled = permute_within_iterations c.cfg.Machine.Config.queue_capacity loop in
      List.for_all
        (fun l -> Sim.Tls_plan.run_loop c.cfg l = Ref_tls.run_loop c.cfg l)
        [ loop; shuffled ])
