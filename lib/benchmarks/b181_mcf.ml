let network ~scale =
  let sources, sinks, transit =
    match scale with
    | Study.Small -> (4, 4, 10)
    | Study.Medium -> (6, 6, 16)
    | Study.Large -> (10, 10, 28)
  in
  Workloads.Netflow.generate ~seed:181 ~sources ~sinks ~transit

let arc_block = 30

(* Relaxation sweeps: one parallelized loop per augmentation.  Iterations
   are the Bellman-Ford passes; within a pass, arc blocks relax in
   parallel (phase B), and the pass barrier flows through the distance
   array written in phase C. *)
let instrument_relax p ~loop_name ~dist_loc (passes : Workloads.Netflow.pass_stat list)
    ~blocks =
  Profiling.Profile.begin_loop p loop_name;
  (* The potentials version only advances when a pass improved something:
     a no-improvement pass rewrites the same values, and silent-store
     hardware keeps it from serializing the next pass (the paper's
     refresh_potential trick for mcf). *)
  let version = ref 0 in
  List.iteri
    (fun pass_idx (ps : Workloads.Netflow.pass_stat) ->
      ignore (Profiling.Profile.begin_task p ~iteration:pass_idx ~phase:Ir.Task.A ());
      Profiling.Profile.read p dist_loc;
      Profiling.Profile.work p 2;
      Profiling.Profile.end_task p;
      let per_block = max 1 (ps.Workloads.Netflow.scanned / blocks) in
      for b = 0 to blocks - 1 do
        ignore
          (Profiling.Profile.begin_task p ~iteration:pass_idx ~phase:Ir.Task.B ~intra:b ());
        Profiling.Profile.read p dist_loc;
        Profiling.Profile.work p (2 * per_block);
        Profiling.Profile.end_task p
      done;
      (* Phase C folds the blocks' relaxations into the distance array;
         the next pass's phase A reads it: the sweep barrier. *)
      ignore (Profiling.Profile.begin_task p ~iteration:pass_idx ~phase:Ir.Task.C ());
      Profiling.Profile.work p (4 + (2 * ps.Workloads.Netflow.improved));
      if ps.Workloads.Netflow.improved > 0 then incr version;
      Profiling.Profile.write p dist_loc !version;
      Profiling.Profile.end_task p)
    passes;
  Profiling.Profile.end_loop p

(* Pricing sweep: iterations are arc blocks; the head-node mark update
   lives in phase A (the paper's fix for the near-constant
   misspeculation), so phase B only reads the marks. *)
let instrument_price p ~loop_name ~mark_loc ~blocks ~arcs ~round =
  Profiling.Profile.begin_loop p loop_name;
  for b = 0 to blocks - 1 do
    ignore (Profiling.Profile.begin_task p ~iteration:b ~phase:Ir.Task.A ());
    Profiling.Profile.work p 2;
    Profiling.Profile.write p (mark_loc b) ((round * 1000) + b);
    Profiling.Profile.end_task p;
    ignore (Profiling.Profile.begin_task p ~iteration:b ~phase:Ir.Task.B ());
    Profiling.Profile.read p (mark_loc b);
    (* A block occasionally prices arcs whose heads sit in the previous
       block: the residual alias misspeculation the paper reports. *)
    if b > 0 && b mod 7 = 0 then Profiling.Profile.read p (mark_loc (b - 1));
    Profiling.Profile.work p (5 * max 1 (arcs / blocks));
    Profiling.Profile.end_task p;
    ignore (Profiling.Profile.begin_task p ~iteration:b ~phase:Ir.Task.C ());
    Profiling.Profile.work p 2;
    Profiling.Profile.end_task p
  done;
  Profiling.Profile.end_loop p

let run_profile ~scale =
  let net = network ~scale in
  let solution = Workloads.Netflow.solve net in
  let arcs = Workloads.Netflow.arc_count net in
  let blocks = max 2 (arcs / arc_block) in
  let p = Profiling.Profile.create ~name:"181.mcf" in
  let dist_loc = Profiling.Profile.loc p "node_potentials" in
  let mark_loc = Driver_util.loc_family p (Printf.sprintf "arc_mark_%d") in
  Profiling.Profile.serial_work p 800 (* problem read + initial basis *);
  let round = ref 0 in
  List.iteri
    (fun k (aug : Workloads.Netflow.augmentation) ->
      instrument_relax p ~loop_name:(Printf.sprintf "primal_net_simplex_%d" k) ~dist_loc
        aug.Workloads.Netflow.passes ~blocks;
      (* Applying the augmenting path is serial pivot work. *)
      Profiling.Profile.serial_work p (20 * aug.Workloads.Netflow.path_arcs);
      (* Every few augmentations, global_opt reprices the arcs. *)
      if k mod 3 = 2 then begin
        instrument_price p ~loop_name:(Printf.sprintf "price_out_impl_%d" !round) ~mark_loc
          ~blocks ~arcs:(arcs * 4) ~round:!round;
        incr round
      end)
    solution.Workloads.Netflow.augmentations;
  Profiling.Profile.serial_work p 400 (* solution output *);
  p

let work_split ~scale =
  let p = run_profile ~scale in
  let trace = Profiling.Profile.trace p in
  let price, total =
    List.fold_left
      (fun (price, total) seg ->
        match seg with
        | Ir.Trace.Serial w -> (price, total + w)
        | Ir.Trace.Loop l ->
          let w = Ir.Trace.loop_work l in
          let is_price =
            String.length l.Ir.Trace.loop_name >= 5
            && String.sub l.Ir.Trace.loop_name 0 5 = "price"
          in
          ((if is_price then price + w else price), total + w))
      (0, 0) trace.Ir.Trace.segments
  in
  if total = 0 then 0.0 else float_of_int price /. float_of_int total

let pdg () =
  let g = Ir.Pdg.create "181.mcf price_out_impl" in
  let mark = Ir.Pdg.add_node g ~label:"update_head_mark" ~weight:0.05 () in
  let price = Ir.Pdg.add_node g ~label:"price_arcs" ~weight:0.9 ~replicable:true () in
  let collect = Ir.Pdg.add_node g ~label:"collect_candidates" ~weight:0.05 () in
  Ir.Pdg.add_edge g ~src:mark ~dst:price ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:price ~dst:collect ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:mark ~dst:mark ~kind:Ir.Dep.Memory ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:collect ~dst:collect ~kind:Ir.Dep.Memory ~loop_carried:true ();
  (* Pricing reads marks written by earlier iterations' head updates
     through pointer-shaped arc-head indices; the speculated alias runs
     mark -> price across iterations, not price against itself. *)
  Ir.Pdg.add_edge g ~src:mark ~dst:price ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:0.15 ~breaker:Ir.Pdg.Alias_speculation ();
  (* The repricing test reads a mark, so the speculated control
     dependence also originates at the mark update. *)
  Ir.Pdg.add_edge g ~src:mark ~dst:price ~kind:Ir.Dep.Control ~loop_carried:true
    ~probability:0.02 ~breaker:Ir.Pdg.Control_speculation ();
  g

(* Loop-body IR for price_out_impl: the mark array is a one-iteration
   affine recurrence, pricing chases pointer-shaped (Dynamic) reads into
   earlier marks — the alias the paper speculates — and tests a mark to
   decide repricing, while candidate collection accumulates into a
   list.  Region labels match [pdg]. *)
let flow_body =
  let open Flow.Body in
  let cand_list = Scalar 0 in
  let cur = Affine { stride = 1; offset = 0 } in
  let prev = Affine { stride = 1; offset = -1 } in
  {
    b_name = "181.mcf price_out_impl";
    b_scalars = [| ("cand_list", Mem) |];
    b_arrays = [| "marks"; "cand_buf" |];
    b_regions =
      [|
        {
          r_label = "update_head_mark";
          r_stmts = [ Read (Elem (0, prev)); Work 5; Write (Elem (0, cur)) ];
        };
        {
          r_label = "price_arcs";
          r_stmts =
            [
              Read (Elem (0, cur));
              If
                {
                  cond =
                    Test { addr = Elem (0, Dynamic { salt = 3; range = 8 }); modulus = 50 };
                  then_ = [];
                  else_ = [];
                };
              If
                {
                  cond = Every { period = 7; phase = 0 };
                  then_ = [ Read (Elem (0, Dynamic { salt = 11; range = 8 })) ];
                  else_ = [];
                };
              Work 90;
              Write (Elem (1, cur));
            ];
        };
        {
          r_label = "collect_candidates";
          r_stmts = [ Read (Elem (1, cur)); Read cand_list; Work 5; Write cand_list ];
        };
      |];
  }

let study =
  {
    Study.spec_name = "181.mcf";
    description = "min-cost network flow; relaxation sweeps parallelize within a \
                   barrier, pricing loops parallelize with the mark update in phase A";
    loops =
      [
        { Study.li_function = "price_out_impl"; li_location = "implicit.c:228-273"; li_exec_time = "25%" };
        { Study.li_function = "primal_net_simplex"; li_location = "psimplex.c:50-138"; li_exec_time = "75%" };
        { Study.li_function = "primal_bea_mpp"; li_location = "pbeampp.c:161-195"; li_exec_time = "24%" };
      ];
    lines_changed_all = 0;
    lines_changed_model = 0;
    techniques =
      [ "Alias & Control Speculation"; "Silent Store Speculation"; "TLS Memory"; "DSWP"; "Nested" ];
    paper_speedup = 2.84;
    paper_threads = 32;
    run = (fun ~scale -> run_profile ~scale);
    plan =
      Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
        ~control_speculated:true ();
    baseline_plan = None;
    pdg;
    pdg_expected_parallel = [ "price_arcs" ];
    flow_body = Some flow_body;
  }
