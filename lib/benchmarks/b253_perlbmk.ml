(* How often consecutive input statements truly depend on each other. *)
let statement_chain_probability = 0.97

let statements ~scale = Study.iterations_for scale ~small:160 ~medium:420 ~large:1200

let globals = 8

let run ~scale =
  let program =
    Workloads.Stackvm.gen_program ~seed:253 ~stmts:(statements ~scale) ~globals
      ~chain:statement_chain_probability ~alloc_rate:0.0
  in
  let state = Workloads.Stackvm.create_state ~globals ~heap_limit:1000 in
  let p = Profiling.Profile.create ~name:"253.perlbmk" in
  let next_op = Profiling.Profile.loc p "next_op" in
  let stack_sp = Profiling.Profile.loc p "PL_stack_sp" in
  let tmps_ix = Profiling.Profile.loc p "PL_tmps_ix" in
  let stdout_loc = Profiling.Profile.loc p "stdout" in
  let global_loc = Driver_util.loc_family p (Printf.sprintf "PL_global_%d") in
  Profiling.Profile.serial_work p 600 (* interpreter startup, input parse *);
  Profiling.Profile.begin_loop p "Perl_runops_standard";
  List.iteri
    (fun i stmt ->
      (* Phase A: speculatively chase next_op to the next NEXTSTATE. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.A ());
      Profiling.Profile.read p next_op;
      Profiling.Profile.work p (1 + List.length stmt / 4);
      Profiling.Profile.write p next_op (i + 1);
      Profiling.Profile.end_task p;
      (* Phase B: execute the statement's operation run. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
      let r = Workloads.Stackvm.exec_stmt state stmt in
      List.iter (fun g -> Profiling.Profile.read p (global_loc g))
        r.Workloads.Stackvm.globals_read;
      (* Statement execution perturbs and restores the VM registers; the
         restore writes the usual boundary values that value speculation
         predicts. *)
      Profiling.Profile.read p stack_sp;
      Profiling.Profile.write p stack_sp (1 + (i mod 3));
      Profiling.Profile.work p (8 * r.Workloads.Stackvm.work);
      List.iter (fun g -> Profiling.Profile.write p (global_loc g) ((i * 16) + g))
        r.Workloads.Stackvm.globals_written;
      Profiling.Profile.write p stack_sp r.Workloads.Stackvm.stack_depth_end;
      Profiling.Profile.write p tmps_ix 0;
      Profiling.Profile.end_task p;
      (* Phase C: commit side effects (prints) in statement order. *)
      ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.C ());
      Profiling.Profile.read p stdout_loc;
      Profiling.Profile.work p (1 + (2 * List.length r.Workloads.Stackvm.printed));
      Profiling.Profile.write p stdout_loc i;
      Profiling.Profile.end_task p)
    program;
  Profiling.Profile.end_loop p;
  Profiling.Profile.serial_work p 200;
  p

let pdg () =
  let g = Ir.Pdg.create "253.perlbmk Perl_runops_standard" in
  let fetch = Ir.Pdg.add_node g ~label:"chase_next_op" ~weight:0.05 () in
  let execute = Ir.Pdg.add_node g ~label:"execute_statement" ~weight:0.9 ~replicable:true () in
  let effects = Ir.Pdg.add_node g ~label:"commit_effects" ~weight:0.05 () in
  Ir.Pdg.add_edge g ~src:fetch ~dst:execute ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:execute ~dst:effects ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:fetch ~dst:fetch ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:effects ~dst:effects ~kind:Ir.Dep.Memory ~loop_carried:true ();
  (* Stack-machine registers at statement boundaries: value-speculable. *)
  Ir.Pdg.add_edge g ~src:execute ~dst:execute ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:1.0 ~breaker:Ir.Pdg.Value_speculation ();
  (* Inter-statement data dependences: alias-speculated, often real. *)
  Ir.Pdg.add_edge g ~src:execute ~dst:execute ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:0.72 ~breaker:Ir.Pdg.Alias_speculation ();
  (* Loop exit when next_op is null: control-speculated. *)
  Ir.Pdg.add_edge g ~src:execute ~dst:execute ~kind:Ir.Dep.Control ~loop_carried:true
    ~probability:0.01 ~breaker:Ir.Pdg.Control_speculation ();
  g

let study =
  {
    Study.spec_name = "253.perlbmk";
    description = "Perl interpreter; input statements execute speculatively in \
                   parallel, bounded by true data dependences between them";
    loops =
      [ { Study.li_function = "Perl_runops_standard"; li_location = "run.c:30"; li_exec_time = "100%" } ];
    lines_changed_all = 0;
    lines_changed_model = 0;
    techniques = [ "Alias, Control & Value Speculation"; "TLS Memory"; "DSWP" ];
    paper_speedup = 1.21;
    paper_threads = 5;
    run;
    plan =
      Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
        ~value_locs:[ "PL_stack_sp"; "PL_tmps_ix" ] ~control_speculated:true ();
    baseline_plan = None;
    pdg;
    pdg_expected_parallel = [ "execute_statement" ];
    flow_body = None;
  }
