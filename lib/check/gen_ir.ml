(* Descriptor of a random well-formed A/B/C loop: one (a, bs, c) work
   tuple per iteration, the B tasks' intra values, and cross-iteration
   B-to-B edges addressed by (iteration, position among the iteration's
   B tasks) so the descriptor survives shrinking — an edge whose
   endpoint was shrunk away is simply dropped by [build_loop]. *)
type loop_desc = {
  ld_iters : (int option * int list * int option) list;
  ld_edges : (int * int * int * int * bool * int * int) list;
      (* src iter, src position, dst iter, dst position, speculated,
         src_offset, dst_offset *)
  ld_intra : int list;
      (* the loop's B tasks' intra values in id order; a B task past the
         end takes its position *)
}

let pp_loop_desc ppf d =
  let pp_opt ppf = function None -> Format.fprintf ppf "-" | Some w -> Format.fprintf ppf "%d" w in
  Format.fprintf ppf "@[<v>loop of %d iterations:@," (List.length d.ld_iters);
  List.iteri
    (fun i (a, bs, c) ->
      Format.fprintf ppf "  it %d: a=%a bs=[%s] c=%a@," i pp_opt a
        (String.concat ";" (List.map string_of_int bs))
        pp_opt c)
    d.ld_iters;
  List.iter
    (fun (si, sj, di, dj, spec, so, dofs) ->
      Format.fprintf ppf "  edge B(%d,%d) -> B(%d,%d)%s so=%d do=%d@," si sj di dj
        (if spec then " spec" else "") so dofs)
    d.ld_edges;
  if d.ld_intra <> [] then
    Format.fprintf ppf "  B intra [%s]@," (String.concat ";" (List.map string_of_int d.ld_intra));
  Format.fprintf ppf "@]"

let show_loop_desc d = Format.asprintf "%a" pp_loop_desc d

let build_loop ?(name = "gen") d =
  let iters = Array.of_list d.ld_iters in
  let intra = Array.of_list d.ld_intra in
  let tasks = ref [] in
  let id = ref 0 and b_count = ref 0 in
  let b_ids = Hashtbl.create 16 in
  Array.iteri
    (fun i (a, bs, c) ->
      (match a with
      | Some w ->
        tasks := Ir.Task.make ~id:!id ~iteration:i ~phase:Ir.Task.A ~work:w () :: !tasks;
        incr id
      | None -> ());
      List.iteri
        (fun j w ->
          Hashtbl.replace b_ids (i, j) !id;
          let intra = if !b_count < Array.length intra then intra.(!b_count) else j in
          tasks :=
            Ir.Task.make ~id:!id ~iteration:i ~phase:Ir.Task.B ~intra ~work:w () :: !tasks;
          incr id;
          incr b_count)
        bs;
      match c with
      | Some w ->
        tasks := Ir.Task.make ~id:!id ~iteration:i ~phase:Ir.Task.C ~work:w () :: !tasks;
        incr id
      | None -> ())
    iters;
  let edges =
    List.filter_map
      (fun (si, sj, di, dj, speculated, src_offset, dst_offset) ->
        match (Hashtbl.find_opt b_ids (si, sj), Hashtbl.find_opt b_ids (di, dj)) with
        | Some src, Some dst when si < di ->
          Some { Sim.Input.src; dst; speculated; src_offset; dst_offset }
        | _ -> None)
      d.ld_edges
  in
  Sim.Input.make_loop ~name ~tasks:(Array.of_list (List.rev !tasks)) ~edges

let loop_desc ?(max_iters = 10) ?(max_bs = 3) ?(max_work = 20) ?(edge_factor = 8)
    ?(offsets = false) () =
  let open QCheck2.Gen in
  let work = int_range 0 max_work in
  let iter =
    triple
      (oneof [ return None; map Option.some (int_range 0 (max 1 (max_work / 4))) ])
      (list_size (int_range 1 max_bs) work)
      (oneof [ return None; map Option.some (int_range 0 (max 1 (max_work / 4))) ])
  in
  let* iters = list_size (int_range 1 max_iters) iter in
  let n = List.length iters in
  let edge =
    let* si = int_range 0 (max 0 (n - 2)) in
    let* di = int_range (min (si + 1) (n - 1)) (n - 1) in
    let* sj = int_range 0 (max_bs - 1) in
    let* dj = int_range 0 (max_bs - 1) in
    let* spec = bool in
    let* so, dofs =
      if offsets then pair (int_range 0 max_work) (int_range 0 max_work) else return (0, 0)
    in
    return (si, sj, di, dj, spec, so, dofs)
  in
  (* Each draw is a fan of one to four edges that share a source B task
     (or a destination), its speculated flag and its offsets, so that
     one producer squashes several consumers and one consumer waits on
     several producers. *)
  let fan =
    let* ((si, sj, di, dj, spec, so, dofs) as e) = edge in
    let* out = bool in
    let iter =
      if out then int_range (min (si + 1) (n - 1)) (n - 1) else int_range 0 (max 0 (di - 1))
    in
    let* others = list_size (int_range 0 3) (pair iter (int_range 0 (max_bs - 1))) in
    return
      (e
      :: List.map
           (fun (i, j) ->
             if out then (si, sj, i, j, spec, so, dofs) else (i, j, di, dj, spec, so, dofs))
           others)
  in
  let* edges = map List.concat (list_size (int_range 0 edge_factor) fan) in
  (* Intra values from a small range, so that an iteration's B tasks can
     tie or come in descending order; none keeps the positions. *)
  let* intra =
    oneof [ return []; list_size (int_range 0 (n * max_bs)) (int_range 0 (max_bs - 1)) ]
  in
  return { ld_iters = iters; ld_edges = edges; ld_intra = intra }

let loop ?name ?max_iters ?max_bs ?max_work ?edge_factor ?offsets () =
  QCheck2.Gen.map (build_loop ?name)
    (loop_desc ?max_iters ?max_bs ?max_work ?edge_factor ?offsets ())

let input ?(max_segments = 4) () =
  let open QCheck2.Gen in
  let* descs =
    list_size (int_range 1 max_segments)
      (oneof
         [
           map (fun w -> `Serial w) (int_range 0 50);
           map (fun d -> `Loop d) (loop_desc ~max_iters:6 ());
         ])
  in
  let segments =
    List.mapi
      (fun i -> function
        | `Serial w -> Sim.Input.Serial w
        | `Loop d -> Sim.Input.Parallel (build_loop ~name:(Printf.sprintf "l%d" i) d))
      descs
  in
  return (Sim.Input.make ~name:"gen" ~segments)

let config ?(max_cores = 32) () =
  let open QCheck2.Gen in
  let* cores = int_range ~origin:1 1 max_cores in
  let* cap = int_range ~origin:32 1 32 in
  let* lat = int_range 0 5 in
  return (Machine.Config.make ~cores ~queue_capacity:cap ~comm_latency:lat ())

let policy =
  let open QCheck2.Gen in
  let* misspec = oneofl [ Sim.Sched.Serialize; Sim.Sched.Squash ] in
  let* forwarding = bool in
  return { Sim.Sched.misspec; forwarding }

(* Random well-formed dynamic trace: serial segments interleaved with
   loops whose task ids are array indices and whose iterations are
   non-decreasing (Ir.Trace.validate accepts every generated trace). *)
let trace ?(max_segments = 4) () =
  let open QCheck2.Gen in
  let* descs =
    list_size (int_range 1 max_segments)
      (oneof
         [
           map (fun w -> `Serial w) (int_range 1 50);
           map (fun d -> `Loop d) (loop_desc ~max_iters:6 ());
         ])
  in
  let segments =
    List.mapi
      (fun i -> function
        | `Serial w -> Ir.Trace.Serial w
        | `Loop d ->
          let l = build_loop ~name:(Printf.sprintf "loop%d" i) d in
          let explicit_deps =
            List.map
              (fun (e : Sim.Input.edge) ->
                Ir.Dep.make ~src:e.Sim.Input.src ~dst:e.Sim.Input.dst ~kind:Ir.Dep.Register ())
              l.Sim.Input.edges
          in
          Ir.Trace.Loop
            { Ir.Trace.loop_name = l.Sim.Input.name; tasks = l.Sim.Input.tasks; explicit_deps })
      descs
  in
  return { Ir.Trace.name = "gen-trace"; segments }

(* Random static PDG: an acyclic weighted dependence graph (edges point
   from lower to higher node ids) with a sprinkling of loop-carried
   edges, the shape the DSWP partitioner consumes.  [breakers] decorates
   loop-carried edges with kind-appropriate breakers; [self_deps] adds
   loop-carried self-edges (the recurrences that keep nodes out of the
   parallel stage until broken). *)
let pdg ?(max_nodes = 8) ?(breakers = false) ?(self_deps = false) () =
  let open QCheck2.Gen in
  let* nodes = list_size (int_range 1 max_nodes) (pair (int_range 1 100) bool) in
  let n = List.length nodes in
  let total = float_of_int (List.fold_left (fun acc (w, _) -> acc + w) 0 nodes) in
  (* Only breakers the structural lint accepts for the edge kind; register
     recurrences are unbreakable. *)
  let breaker_for kind =
    if not breakers then return None
    else
      match kind with
      | Ir.Dep.Memory ->
        oneofl
          [
            None;
            Some Ir.Pdg.Alias_speculation;
            Some Ir.Pdg.Value_speculation;
            Some Ir.Pdg.Silent_store;
            Some Ir.Pdg.Ybranch_annotation;
          ]
      | Ir.Dep.Control -> oneofl [ None; Some Ir.Pdg.Control_speculation ]
      | Ir.Dep.Register -> return None
  in
  let prob = map (fun p -> float_of_int p /. 100.0) (int_range 0 100) in
  let edge =
    let* src = int_range 0 (max 0 (n - 2)) in
    let* dst = int_range (min (src + 1) (n - 1)) (n - 1) in
    let* kind = oneofl [ Ir.Dep.Register; Ir.Dep.Memory; Ir.Dep.Control ] in
    let* loop_carried = bool in
    let* probability = prob in
    let* breaker = if loop_carried then breaker_for kind else return None in
    return (src, dst, kind, loop_carried, probability, breaker)
  in
  let* edges = list_size (int_range 0 (2 * n)) edge in
  let self_edge =
    let* node = int_range 0 (n - 1) in
    let* kind = oneofl [ Ir.Dep.Memory; Ir.Dep.Control ] in
    let* probability = prob in
    let* breaker = breaker_for kind in
    return (node, node, kind, true, probability, breaker)
  in
  let* selfs =
    if self_deps then list_size (int_range 0 n) self_edge else return []
  in
  let g = Ir.Pdg.create "gen-pdg" in
  List.iteri
    (fun i (w, r) ->
      ignore
        (Ir.Pdg.add_node g
           ~label:(Printf.sprintf "n%d" i)
           ~weight:(float_of_int w /. total)
           ~replicable:r ()))
    nodes;
  List.iter
    (fun (src, dst, kind, loop_carried, probability, breaker) ->
      if src <> dst && src < n && dst < n then
        Ir.Pdg.add_edge g ~src ~dst ~kind ~loop_carried ~probability ?breaker ())
    edges;
  List.iter
    (fun (src, dst, kind, loop_carried, probability, breaker) ->
      Ir.Pdg.add_edge g ~src ~dst ~kind ~loop_carried ~probability ?breaker ())
    selfs;
  return g

(* ------------------------------------------------------------------ *)
(* Random loop-body IR ({!Flow.Body}) for the dependence-analysis
   soundness property.  Correct by construction: every value drawn here
   satisfies [Flow.Body.validate], so a shrunk counterexample is always
   a runnable body. *)

let flow_index =
  let open QCheck2.Gen in
  oneof
    [
      map (fun c -> Flow.Body.Fixed c) (int_bound 3);
      map2
        (fun stride offset -> Flow.Body.Affine { stride; offset })
        (int_range (-2) 2) (int_range (-2) 2);
      map2
        (fun salt range -> Flow.Body.Dynamic { salt; range })
        (int_bound 5) (int_range 1 4);
    ]

let flow_addr ~nscalars ~narrays =
  let open QCheck2.Gen in
  let scalar = map (fun s -> Flow.Body.Scalar s) (int_bound (nscalars - 1)) in
  if narrays = 0 then scalar
  else
    oneof
      [
        scalar;
        map2 (fun a idx -> Flow.Body.Elem (a, idx)) (int_bound (narrays - 1)) flow_index;
      ]

let flow_commutative_fn = "Yacm_gen"

let rec flow_stmt ~nscalars ~narrays ~max_stmts depth =
  let open QCheck2.Gen in
  let addr = flow_addr ~nscalars ~narrays in
  let leaf =
    [
      (2, map (fun w -> Flow.Body.Work w) (int_bound 4));
      (3, map (fun a -> Flow.Body.Read a) addr);
      (3, map (fun a -> Flow.Body.Write a) addr);
    ]
  in
  if depth = 0 then frequency leaf
  else
    let body = flow_stmts ~nscalars ~narrays ~max_stmts (depth - 1) in
    let cond =
      oneof
        [
          map2
            (fun period phase -> Flow.Body.Every { period; phase })
            (int_range 1 4) (int_bound 2);
          map2
            (fun addr modulus -> Flow.Body.Test { addr; modulus })
            addr (int_range 1 4);
        ]
    in
    frequency
      (leaf
      @ [
          ( 1,
            map3
              (fun cond then_ else_ -> Flow.Body.If { cond; then_; else_ })
              cond body body );
          (1, map2 (fun trips body -> Flow.Body.While { trips; body }) (int_bound 3) body);
          ( 1,
            map2
              (fun fn body -> Flow.Body.Call { fn; body })
              (oneofl [ flow_commutative_fn; "helper" ])
              body );
          ( 1,
            map2
              (fun probability body -> Flow.Body.Ybranch { probability; body })
              (oneofl [ 1.0; 0.5; 0.25 ])
              body );
        ])

and flow_stmts ~nscalars ~narrays ~max_stmts depth =
  QCheck2.Gen.list_size (QCheck2.Gen.int_bound max_stmts)
    (flow_stmt ~nscalars ~narrays ~max_stmts depth)

let flow_body ?(max_regions = 3) ?(max_stmts = 5) ?(max_depth = 2) () =
  let open QCheck2.Gen in
  let* nscalars = int_range 1 3 in
  let* narrays = int_bound 2 in
  let* storages =
    list_size (return nscalars)
      (map (fun mem -> if mem then Flow.Body.Mem else Flow.Body.Reg) bool)
  in
  let* nregions = int_range 1 max_regions in
  let* regions =
    list_size (return nregions)
      (flow_stmts ~nscalars ~narrays ~max_stmts max_depth)
  in
  return
    {
      Flow.Body.b_name = "gen-body";
      b_scalars =
        Array.of_list
          (List.mapi (fun i st -> (Printf.sprintf "s%d" i, st)) storages);
      b_arrays = Array.init narrays (Printf.sprintf "a%d");
      b_regions =
        Array.of_list
          (List.mapi
             (fun i stmts ->
               { Flow.Body.r_label = Printf.sprintf "r%d" i; r_stmts = stmts })
             regions);
    }
