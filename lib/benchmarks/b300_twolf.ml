let swaps ~scale = Study.iterations_for scale ~small:400 ~medium:1100 ~large:3000

(* A deliberately net-dense circuit: conflicts between overlapping swaps
   are what keeps twolf near 2x in the paper. *)
let blocks = 48

let grid = 9

let nets = 20

let instrument_swap p ~iteration ~seed_loc ~net_loc ~block_loc
    (placer : Workloads.Anneal.t) ~threshold =
  (* Phase A: loop control only. *)
  ignore (Profiling.Profile.begin_task p ~iteration ~phase:Ir.Task.A ());
  Profiling.Profile.work p 2;
  Profiling.Profile.end_task p;
  (* Phase B: the ucxx2 cost evaluation and tentative swap. *)
  ignore (Profiling.Profile.begin_task p ~iteration ~phase:Ir.Task.B ());
  let swap = Workloads.Anneal.try_swap placer ~threshold in
  Profiling.Profile.commutative p ~group:"Yacm_random" (fun () ->
      Profiling.Profile.read p seed_loc;
      Profiling.Profile.work p (2 * swap.Workloads.Anneal.rng_calls);
      Profiling.Profile.write p seed_loc (Driver_util.rng_value iteration));
  (* Read the structures the cost evaluation touched. *)
  Profiling.Profile.read p (block_loc swap.Workloads.Anneal.block);
  (match swap.Workloads.Anneal.partner with
  | Some b -> Profiling.Profile.read p (block_loc b)
  | None -> ());
  List.iter (fun n -> Profiling.Profile.read p (net_loc n)) swap.Workloads.Anneal.nets_read;
  Profiling.Profile.work p swap.Workloads.Anneal.work;
  (* An accepted swap updates them. *)
  if swap.Workloads.Anneal.accepted then begin
    Profiling.Profile.write p (block_loc swap.Workloads.Anneal.block) iteration;
    (match swap.Workloads.Anneal.partner with
    | Some b -> Profiling.Profile.write p (block_loc b) iteration
    | None -> ());
    List.iter
      (fun n -> Profiling.Profile.write p (net_loc n) iteration)
      swap.Workloads.Anneal.nets_read
  end;
  Profiling.Profile.end_task p;
  (* Phase C: commit bookkeeping (cost accumulator). *)
  ignore (Profiling.Profile.begin_task p ~iteration ~phase:Ir.Task.C ());
  Profiling.Profile.work p 2;
  Profiling.Profile.end_task p

let run ~scale =
  let p = Profiling.Profile.create ~name:"300.twolf" in
  let seed_loc = Profiling.Profile.loc p "randVarS" in
  let net_loc = Driver_util.loc_family p (Printf.sprintf "net_%d") in
  let block_loc = Driver_util.loc_family p (Printf.sprintf "block_%d") in
  let placer = Workloads.Anneal.create ~seed:300 ~blocks ~grid ~nets in
  Profiling.Profile.serial_work p 800;
  Profiling.Profile.begin_loop p "uloop";
  for i = 0 to swaps ~scale - 1 do
    instrument_swap p ~iteration:i ~seed_loc ~net_loc ~block_loc placer ~threshold:0.5
  done;
  Profiling.Profile.end_loop p;
  Profiling.Profile.serial_work p 300;
  p

let pdg () =
  let g = Ir.Pdg.create "300.twolf uloop" in
  let control = Ir.Pdg.add_node g ~label:"loop_control" ~weight:0.02 () in
  let ucxx2 = Ir.Pdg.add_node g ~label:"ucxx2" ~weight:0.95 ~replicable:true () in
  let commit = Ir.Pdg.add_node g ~label:"commit_cost" ~weight:0.03 () in
  Ir.Pdg.add_edge g ~src:control ~dst:ucxx2 ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:ucxx2 ~dst:commit ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:control ~dst:control ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:commit ~dst:commit ~kind:Ir.Dep.Memory ~loop_carried:true ();
  (* RNG seed recurrence: Commutative breaks it. *)
  Ir.Pdg.add_edge g ~src:ucxx2 ~dst:ucxx2 ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:1.0 ~breaker:(Ir.Pdg.Commutative_annotation "Yacm_random") ();
  (* Block/net structure aliases: speculated, with real violations. *)
  Ir.Pdg.add_edge g ~src:ucxx2 ~dst:ucxx2 ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:0.3 ~breaker:Ir.Pdg.Alias_speculation ();
  (* Acceptance-test control flow: speculated. *)
  Ir.Pdg.add_edge g ~src:ucxx2 ~dst:ucxx2 ~kind:Ir.Dep.Control ~loop_carried:true
    ~probability:0.05 ~breaker:Ir.Pdg.Control_speculation ();
  g

let commutative_registry () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:"Yacm_random" ~group:"Yacm_random"
    ~rollback:"Yacm_random_set_seed" ();
  c

(* Loop-body IR for uloop: the induction register, the RNG seed hidden
   behind the Yacm_random commutative call, pointer-shaped block/net
   touches behind the acceptance test (the speculated alias), the
   delta-cost acceptance branch (the speculated control), and the cost
   accumulator.  Region labels match [pdg]. *)
let flow_body =
  let open Flow.Body in
  let iv = Scalar 0 and rand_var = Scalar 1 and delta = Scalar 2 and cost_acc = Scalar 3 in
  let cur = Affine { stride = 1; offset = 0 } in
  {
    b_name = "300.twolf uloop";
    b_scalars = [| ("iv", Reg); ("randVarS", Mem); ("delta", Reg); ("cost_acc", Mem) |];
    b_arrays = [| "blocks"; "nets" |];
    b_regions =
      [|
        { r_label = "loop_control"; r_stmts = [ Read iv; Work 2; Write iv ] };
        {
          r_label = "ucxx2";
          r_stmts =
            [
              Read iv;
              Call
                { fn = "Yacm_random"; body = [ Read rand_var; Work 4; Write rand_var ] };
              Read (Elem (0, cur));
              If
                {
                  cond = Every { period = 3; phase = 1 };
                  then_ =
                    [
                      Read (Elem (0, Dynamic { salt = 5; range = 8 }));
                      Read (Elem (1, Dynamic { salt = 9; range = 6 }));
                    ];
                  else_ = [];
                };
              Work 91;
              If
                {
                  cond = Test { addr = delta; modulus = 100 };
                  then_ = [];
                  else_ = [];
                };
              If
                {
                  cond = Every { period = 4; phase = 2 };
                  then_ =
                    [
                      Write (Elem (0, Dynamic { salt = 13; range = 8 }));
                      Write (Elem (1, Dynamic { salt = 17; range = 6 }));
                    ];
                  else_ = [];
                };
              Write delta;
            ];
        };
        {
          r_label = "commit_cost";
          r_stmts = [ Read delta; Read cost_acc; Work 3; Write cost_acc ];
        };
      |];
  }

let study =
  {
    Study.spec_name = "300.twolf";
    description = "simulated-annealing cell placement; swap iterations speculate, \
                   the RNG is Commutative, block/net aliases still serialize";
    loops =
      [ { Study.li_function = "uloop"; li_location = "uloop.c:154-361"; li_exec_time = "100%" } ];
    lines_changed_all = 1;
    lines_changed_model = 1;
    techniques = [ "Commutative"; "Alias & Control Speculation"; "TLS Memory"; "DSWP" ];
    paper_speedup = 2.06;
    paper_threads = 8;
    run;
    plan =
      Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
        ~control_speculated:true ~commutative:(commutative_registry ()) ();
    baseline_plan =
      Some
        (Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
           ~control_speculated:true ());
    pdg;
    pdg_expected_parallel = [ "ucxx2" ];
    flow_body = Some flow_body;
  }
