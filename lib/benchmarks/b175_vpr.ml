let swaps_per_temp ~scale = Study.iterations_for scale ~small:150 ~medium:320 ~large:800

let blocks = 88

let grid = 12

let nets = 48

let temperature_schedule = [ 0.85; 0.55; 0.32; 0.18; 0.08; 0.03 ]

(* Location names of the value-speculated block coordinates. *)
let value_speculated_blocks =
  List.init blocks (fun b -> Printf.sprintf "block_%d" b)

let run ~scale =
  let p = Profiling.Profile.create ~name:"175.vpr" in
  let seed_loc = Profiling.Profile.loc p "rand_seed" in
  let net_loc = Driver_util.loc_family p (Printf.sprintf "net_%d") in
  let block_loc = Driver_util.loc_family p (Printf.sprintf "block_%d") in
  let placer = Workloads.Anneal.create ~seed:175 ~blocks ~grid ~nets in
  Profiling.Profile.serial_work p 1000;
  List.iteri
    (fun temp_idx threshold ->
      Profiling.Profile.begin_loop p (Printf.sprintf "try_place_t%d" temp_idx);
      for i = 0 to swaps_per_temp ~scale - 1 do
        (* Phase A: pick the move (loop control). *)
        ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.A ());
        Profiling.Profile.work p 2;
        Profiling.Profile.end_task p;
        (* Phase B: try_swap. *)
        ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ());
        let swap = Workloads.Anneal.try_swap placer ~threshold in
        Profiling.Profile.commutative p ~group:"my_irand" (fun () ->
            Profiling.Profile.read p seed_loc;
            Profiling.Profile.work p (2 * swap.Workloads.Anneal.rng_calls);
            Profiling.Profile.write p seed_loc (Driver_util.rng_value ((temp_idx * 10000) + i)));
        Profiling.Profile.read p (block_loc swap.Workloads.Anneal.block);
        (match swap.Workloads.Anneal.partner with
        | Some b -> Profiling.Profile.read p (block_loc b)
        | None -> ());
        List.iter
          (fun n -> Profiling.Profile.read p (net_loc n))
          swap.Workloads.Anneal.nets_read;
        Profiling.Profile.work p swap.Workloads.Anneal.work;
        if swap.Workloads.Anneal.accepted then begin
          Profiling.Profile.write p (block_loc swap.Workloads.Anneal.block) ((temp_idx * 100000) + i);
          (match swap.Workloads.Anneal.partner with
          | Some b -> Profiling.Profile.write p (block_loc b) ((temp_idx * 100000) + i)
          | None -> ());
          List.iter
            (fun n -> Profiling.Profile.write p (net_loc n) ((temp_idx * 100000) + i))
            swap.Workloads.Anneal.nets_read
        end;
        Profiling.Profile.end_task p;
        (* Phase C: commit the accepted swap's bookkeeping. *)
        ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.C ());
        Profiling.Profile.work p 2;
        Profiling.Profile.end_task p
      done;
      Profiling.Profile.end_loop p;
      (* Between temperatures: recompute the schedule (serial). *)
      Profiling.Profile.serial_work p 120)
    temperature_schedule;
  Profiling.Profile.serial_work p 300;
  p

let pdg () =
  let g = Ir.Pdg.create "175.vpr try_place" in
  let control = Ir.Pdg.add_node g ~label:"pick_move" ~weight:0.02 () in
  let try_swap = Ir.Pdg.add_node g ~label:"try_swap" ~weight:0.95 ~replicable:true () in
  let commit = Ir.Pdg.add_node g ~label:"commit_swap" ~weight:0.03 () in
  Ir.Pdg.add_edge g ~src:control ~dst:try_swap ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:try_swap ~dst:commit ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:control ~dst:control ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:commit ~dst:commit ~kind:Ir.Dep.Memory ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:try_swap ~dst:try_swap ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:1.0 ~breaker:(Ir.Pdg.Commutative_annotation "my_irand") ();
  (* Block coordinate loads: usually unchanged, value-speculable. *)
  Ir.Pdg.add_edge g ~src:try_swap ~dst:try_swap ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:0.25 ~breaker:Ir.Pdg.Value_speculation ();
  Ir.Pdg.add_edge g ~src:try_swap ~dst:try_swap ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:0.2 ~breaker:Ir.Pdg.Alias_speculation ();
  Ir.Pdg.add_edge g ~src:try_swap ~dst:try_swap ~kind:Ir.Dep.Control ~loop_carried:true
    ~probability:0.05 ~breaker:Ir.Pdg.Control_speculation ();
  g

let commutative_registry () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:"my_irand" ~group:"my_irand"
    ~rollback:"my_srandom" ();
  c

let study =
  {
    Study.spec_name = "175.vpr";
    description = "FPGA placement by simulated annealing; swaps speculate in parallel, \
                   acceptance rate sets the misspeculation regime per temperature";
    loops =
      [ { Study.li_function = "try_place"; li_location = "place.c:506-513"; li_exec_time = "100%" } ];
    lines_changed_all = 1;
    lines_changed_model = 1;
    techniques =
      [ "Commutative"; "Alias, Value, & Control Speculation"; "TLS Memory"; "DSWP" ];
    paper_speedup = 3.59;
    paper_threads = 15;
    run;
    plan =
      Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
        ~value_locs:value_speculated_blocks ~control_speculated:true
        ~commutative:(commutative_registry ()) ();
    baseline_plan =
      Some
        (Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
           ~value_locs:value_speculated_blocks ~control_speculated:true ());
    pdg;
    pdg_expected_parallel = [ "try_swap" ];
    flow_body = None;
  }
