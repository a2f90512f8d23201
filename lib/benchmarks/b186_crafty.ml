let positions ~scale = Study.iterations_for scale ~small:2 ~medium:4 ~large:8

let depth = 5

let search_state_base = 77

(* The unrolled search: every (root move, reply) pair becomes one phase-B
   task whose work is the real node count of the depth-3 subtree search. *)
let run ~scale =
  let p = Profiling.Profile.create ~name:"186.crafty" in
  let cache_loc = Profiling.Profile.loc p "trans_ref" in
  let pawn_loc = Profiling.Profile.loc p "pawn_hash_table" in
  let search_state = Profiling.Profile.loc p "search" in
  let best_loc = Profiling.Profile.loc p "best_move" in
  let cache = Workloads.Alphabeta.create_cache () in
  Profiling.Profile.serial_work p 300;
  Profiling.Profile.begin_loop p "SearchRoot";
  let iter = ref 0 in
  let tasks_done = ref 0 in
  let prev_b : int option ref = ref None in
  for pos_idx = 0 to positions ~scale - 1 do
    let root = Workloads.Alphabeta.root ~seed:((186 * 1000) + pos_idx) in
    let root_moves = Workloads.Alphabeta.moves root in
    List.iter
      (fun m ->
        let i = !iter in
        incr iter;
        (* Phase A: MakeMove on the root move; cheap and serial. *)
        ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.A ());
        Profiling.Profile.read p search_state;
        Profiling.Profile.work p 12;
        Profiling.Profile.end_task p;
        (* Phase B: one task per reply (the unrolled recursion level). *)
        let replies = Workloads.Alphabeta.moves m in
        List.iteri
          (fun j reply ->
            let b =
              Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.B ~intra:j ()
            in
            (* The search structure: read, perturb, restore — always the
               same value at task end, which value speculation exploits. *)
            Profiling.Profile.read p search_state;
            Profiling.Profile.write p search_state (search_state_base + 1);
            let _v, stats =
              Profiling.Profile.commutative p ~group:"cache_lookup" (fun () ->
                  Profiling.Profile.read p cache_loc;
                  Profiling.Profile.read p pawn_loc;
                  let r = Workloads.Alphabeta.search ~cache ~depth:(depth - 2) reply in
                  Profiling.Profile.write p cache_loc (i * 1000 + j + 1);
                  Profiling.Profile.write p pawn_loc (i * 1000 + j + 2);
                  r)
            in
            Profiling.Profile.work p stats.Workloads.Alphabeta.nodes;
            Profiling.Profile.write p search_state search_state_base;
            (* The rare time-check control dependence: every ~40 tasks the
               next_time_check branch would fire; control speculation
               breaks it elsewhere. *)
            incr tasks_done;
            (match !prev_b with
            | Some prev when !tasks_done mod 40 = 0 ->
              Profiling.Profile.add_dep p ~src:prev ~dst:b ~kind:Ir.Dep.Control
            | _ -> ());
            prev_b := Some b;
            Profiling.Profile.end_task p)
          replies;
        (* Phase C: fold the replies into the best move / alpha value. *)
        ignore (Profiling.Profile.begin_task p ~iteration:i ~phase:Ir.Task.C ());
        Profiling.Profile.read p best_loc;
        Profiling.Profile.work p (4 + List.length replies);
        Profiling.Profile.write p best_loc i;
        Profiling.Profile.end_task p)
      root_moves
  done;
  Profiling.Profile.end_loop p;
  Profiling.Profile.serial_work p 150;
  p

let pdg () =
  let g = Ir.Pdg.create "186.crafty SearchRoot" in
  let make_move = Ir.Pdg.add_node g ~label:"make_move" ~weight:0.02 () in
  let search = Ir.Pdg.add_node g ~label:"search_subtree" ~weight:0.95 ~replicable:true () in
  let fold = Ir.Pdg.add_node g ~label:"update_best" ~weight:0.03 () in
  Ir.Pdg.add_edge g ~src:make_move ~dst:search ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:search ~dst:fold ~kind:Ir.Dep.Register ();
  Ir.Pdg.add_edge g ~src:make_move ~dst:make_move ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:fold ~dst:fold ~kind:Ir.Dep.Memory ~loop_carried:true ();
  (* search state restored each iteration: breakable by value spec *)
  Ir.Pdg.add_edge g ~src:search ~dst:search ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:1.0 ~breaker:Ir.Pdg.Value_speculation ();
  (* transposition / pawn caches: breakable by the Commutative annotation *)
  Ir.Pdg.add_edge g ~src:search ~dst:search ~kind:Ir.Dep.Memory ~loop_carried:true
    ~probability:0.9 ~breaker:(Ir.Pdg.Commutative_annotation "cache_lookup") ();
  (* the time-check branch: breakable by control speculation *)
  Ir.Pdg.add_edge g ~src:search ~dst:search ~kind:Ir.Dep.Control ~loop_carried:true
    ~probability:0.025 ~breaker:Ir.Pdg.Control_speculation ();
  g

let commutative_registry () =
  let c = Annotations.Commutative.create () in
  Annotations.Commutative.annotate c ~fn:"trans_ref_lookup" ~group:"cache_lookup"
    ~rollback:"trans_ref_invalidate" ();
  Annotations.Commutative.annotate c ~fn:"pawn_hash_lookup" ~group:"cache_lookup" ();
  c

let plan =
  Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
    ~value_locs:[ "search" ] ~control_speculated:true
    ~commutative:(commutative_registry ()) ()

let baseline_plan =
  (* Same speculation but no Commutative annotation on the caches. *)
  Speculation.Spec_plan.make ~alias:Speculation.Spec_plan.Alias_all
    ~value_locs:[ "search" ] ~control_speculated:true ()

let study =
  {
    Study.spec_name = "186.crafty";
    description = "alpha-beta chess search; root moves and first-level replies run in \
                   parallel, caches are Commutative, the search struct is value-predicted";
    loops =
      [
        { Study.li_function = "SearchRoot"; li_location = "searchr.c:52-153"; li_exec_time = "100%" };
        { Study.li_function = "Search"; li_location = "search.c:218-368"; li_exec_time = "98%" };
      ];
    lines_changed_all = 0;
    lines_changed_model = 9;
    techniques = [ "Commutative"; "TLS Memory"; "DSWP"; "Nested" ];
    paper_speedup = 25.18;
    paper_threads = 32;
    run;
    plan;
    baseline_plan = Some baseline_plan;
    pdg;
    pdg_expected_parallel = [ "search_subtree" ];
    flow_body = None;
  }
