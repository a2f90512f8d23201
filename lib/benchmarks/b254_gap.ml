let statements ~scale = Study.iterations_for scale ~small:200 ~medium:460 ~large:1200

let globals = 24

let heap_limit = 34

let run ~scale =
  let program =
    Workloads.Stackvm.gen_program ~seed:254 ~stmts:(statements ~scale) ~globals ~chain:0.68
      ~alloc_rate:0.55
  in
  let state = Workloads.Stackvm.create_state ~globals ~heap_limit in
  let p = Profiling.Profile.create ~name:"254.gap" in
  let last_loc = Profiling.Profile.loc p "Last" in
  let alloc_ptr = Profiling.Profile.loc p "masterPointer" in
  let heap_layout = Profiling.Profile.loc p "heap_layout" in
  let stdout_loc = Profiling.Profile.loc p "stdout" in
  let global_loc = Driver_util.loc_family p (Printf.sprintf "gvar_%d") in
  let bag_loc h = Profiling.Profile.loc p (Printf.sprintf "bag_%d" h) in
  let rng = Simcore.Rng.create 2540 in
  Profiling.Profile.serial_work p 900 (* interpreter startup *);
  Profiling.Profile.begin_loop p "main_read_eval" ;
  List.iteri
    (fun i stmt ->
      (* Phase A: read the next statement. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.A ());
      Profiling.Profile.work p 3;
      Profiling.Profile.end_task p;
      (* Phase B: evaluate the statement. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
      let r = Workloads.Stackvm.exec_stmt state stmt in
      List.iter (fun g -> Profiling.Profile.read p (global_loc g))
        r.Workloads.Stackvm.globals_read;
      (* An occasional statement really uses the previous result. *)
      if Simcore.Rng.chance rng 0.12 then Profiling.Profile.read p last_loc;
      (* Allocations go through the bump allocator (Commutative) and
         depend on the current heap layout. *)
      if r.Workloads.Stackvm.allocated <> [] then begin
        Profiling.Profile.read p heap_layout;
        let footprint () =
          Profiling.Profile.read p alloc_ptr;
          Profiling.Profile.work p (3 * List.length r.Workloads.Stackvm.allocated);
          Profiling.Profile.write p alloc_ptr (i + 1)
        in
        Profiling.Profile.commutative p ~group:"NewBag" footprint
      end;
      List.iter (fun h -> Profiling.Profile.read p (bag_loc h))
        r.Workloads.Stackvm.objects_touched;
      (* Statements reference existing bags too; after a collection those
         reads hit freshly moved objects and misspeculate. *)
      let live = Array.of_list (Workloads.Stackvm.live_handles state) in
      if Array.length live > 0 then begin
        let pick = Simcore.Rng.int rng 3 in
        for k = 0 to pick - 1 do
          Profiling.Profile.read p (bag_loc live.((i + (7 * k)) mod Array.length live))
        done
      end;
      Profiling.Profile.work p (10 * r.Workloads.Stackvm.work);
      (* The copying collector moves every live bag: it writes the heap
         layout and every survivor, conflicting with all later readers. *)
      (match r.Workloads.Stackvm.gc with
      | Some gc ->
        Profiling.Profile.work p (6 * List.length gc.Workloads.Stackvm.moved);
        Profiling.Profile.write p heap_layout i;
        List.iter (fun h -> Profiling.Profile.write p (bag_loc h) i)
          gc.Workloads.Stackvm.moved
      | None -> ());
      List.iter (fun h -> Profiling.Profile.write p (bag_loc h) ((i * 8) + 1))
        r.Workloads.Stackvm.allocated;
      List.iter (fun g -> Profiling.Profile.write p (global_loc g) ((i * 8) + 2))
        r.Workloads.Stackvm.globals_written;
      Profiling.Profile.write p last_loc i;
      Profiling.Profile.end_task p;
      (* Phase C: print results in order. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.C ());
      Profiling.Profile.read p stdout_loc;
      Profiling.Profile.work p (1 + (2 * List.length r.Workloads.Stackvm.printed));
      Profiling.Profile.write p stdout_loc i;
      Profiling.Profile.end_task p)
    program;
  Profiling.Profile.end_loop p;
  Profiling.Profile.serial_work p 250;
  p

let pdg () =
  let g = Ir.Pdg.create "254.gap main" in
  let read = Ir.Pdg.add_node g ~label:"read_statement" ~weight:0.04 () in
  let eval = Ir.Pdg.add_node g ~label:"evaluate" ~weight:0.92 ~replicable:true () in
  let print = Ir.Pdg.add_node g ~label:"print_result" ~weight:0.04 () in
  Ir.Pdg.add_edge g ~src:read ~dst:eval ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:eval ~dst:print ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:read ~dst:read ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:print ~dst:print ~kind:Ir.Dep.Memory ~loop_carried:true ();
  (* Allocator state: hidden by Commutative. *)
  Ir.Pdg.add_edge g ~src:eval ~dst:eval ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:1.0 ~breaker:(Ir.Pdg.Commutative_annotation "NewBag") ();
  (* Statement data dependences and GC interference: alias-speculated. *)
  Ir.Pdg.add_edge g ~src:eval ~dst:eval ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:0.4 ~breaker:Ir.Pdg.Alias_speculation ();
  g

let commutative_registry () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:"NewBag" ~group:"NewBag" ~rollback:"RetypeBag" ();
  c

let study =
  {
    Study.spec_name = "254.gap";
    description = "algebra interpreter; statements speculate in parallel, the \
                   allocator is Commutative, the copying GC causes the misspeculation";
    loops =
      [ { Study.li_function = "main"; li_location = "gap.c:191-227"; li_exec_time = "100%" } ];
    lines_changed_all = 3;
    lines_changed_model = 3;
    techniques = [ "Commutative"; "TLS Memory"; "DSWP"; "Alias Speculation" ];
    paper_speedup = 1.94;
    paper_threads = 10;
    run;
    plan =
      Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
        ~commutative:(commutative_registry ()) ();
    baseline_plan = Some (Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all ());
    pdg;
    pdg_expected_parallel = [ "evaluate" ];
    flow_body = None;
  }
