(* Tests for the DSWP partitioner and the execution planner. *)

module Pt = Dswp.Partition
module Pl = Dswp.Planner

let three_stage_pdg () =
  let g = Ir.Pdg.create "abc" in
  let a = Ir.Pdg.add_node g ~label:"read" ~weight:0.1 () in
  let b = Ir.Pdg.add_node g ~label:"work" ~weight:0.8 ~replicable:true () in
  let c = Ir.Pdg.add_node g ~label:"write" ~weight:0.1 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:b ~dst:c ~kind:Ir.Dep.Memory ();
  Ir.Pdg.add_edge g ~src:a ~dst:a ~kind:Ir.Dep.Register ~loop_carried:true ();
  Ir.Pdg.add_edge g ~src:c ~dst:c ~kind:Ir.Dep.Memory ~loop_carried:true ();
  (g, a, b, c)

let partition_classic_pipeline () =
  let g, a, b, c = three_stage_pdg () in
  let t = Pt.partition g ~enabled:(fun _ -> true) in
  Alcotest.(check (list int)) "A" [ a ] (Pt.stage t Ir.Task.A).Pt.nodes;
  Alcotest.(check (list int)) "B" [ b ] (Pt.stage t Ir.Task.B).Pt.nodes;
  Alcotest.(check (list int)) "C" [ c ] (Pt.stage t Ir.Task.C).Pt.nodes;
  Alcotest.(check bool) "B replicated" true (Pt.stage t Ir.Task.B).Pt.replicated;
  Alcotest.(check (float 1e-9)) "parallel fraction" 0.8 (Pt.parallel_fraction t)

let partition_carried_dep_blocks_parallel () =
  let g, _, b, _ = three_stage_pdg () in
  (* An unbreakable loop-carried self-dependence on the worker: no
     parallel stage survives. *)
  Ir.Pdg.add_edge g ~src:b ~dst:b ~kind:Ir.Dep.Memory ~loop_carried:true ();
  let t = Pt.partition g ~enabled:(fun _ -> true) in
  Alcotest.(check (list int)) "no parallel stage" [] (Pt.stage t Ir.Task.B).Pt.nodes

let partition_breaker_unlocks () =
  let g, _, b, _ = three_stage_pdg () in
  Ir.Pdg.add_edge g ~src:b ~dst:b ~kind:Ir.Dep.Memory ~loop_carried:true
    ~breaker:(Ir.Pdg.Commutative_annotation "rng") ();
  let without =
    Pt.partition g ~enabled:(fun br -> br <> Ir.Pdg.Commutative_annotation "rng")
  in
  let with_ = Pt.partition g ~enabled:(fun _ -> true) in
  Alcotest.(check (list int)) "annotation off: serial" []
    (Pt.stage without Ir.Task.B).Pt.nodes;
  Alcotest.(check (list int)) "annotation on: parallel" [ b ]
    (Pt.stage with_ Ir.Task.B).Pt.nodes

let partition_non_replicable_excluded () =
  let g = Ir.Pdg.create "nr" in
  let a = Ir.Pdg.add_node g ~label:"a" ~weight:0.5 () in
  let b = Ir.Pdg.add_node g ~label:"b" ~weight:0.5 () in
  Ir.Pdg.add_edge g ~src:a ~dst:b ~kind:Ir.Dep.Register ();
  (* Neither node is marked replicable: stage B stays empty. *)
  let t = Pt.partition g ~enabled:(fun _ -> true) in
  Alcotest.(check (list int)) "no replicable nodes" [] (Pt.stage t Ir.Task.B).Pt.nodes

let partition_every_node_assigned () =
  let g, a, b, c = three_stage_pdg () in
  let extra = Ir.Pdg.add_node g ~label:"side" ~weight:0.05 () in
  Ir.Pdg.add_edge g ~src:b ~dst:extra ~kind:Ir.Dep.Register ();
  let t = Pt.partition g ~enabled:(fun _ -> true) in
  let all =
    List.concat_map (fun s -> s.Pt.nodes) t.Pt.stages |> List.sort compare
  in
  Alcotest.(check (list int)) "all nodes" (List.sort compare [ a; b; c; extra ]) all

let pipeline_bound_values () =
  let g, _, _, _ = three_stage_pdg () in
  let t = Pt.partition g ~enabled:(fun _ -> true) in
  Alcotest.(check (float 1e-9)) "1 thread" 1.0 (Pt.pipeline_bound t ~threads:1);
  (* With 10 threads: 8 B replicas; bottleneck max(0.1, 0.1, 0.1) = 0.1. *)
  Alcotest.(check (float 1e-9)) "10 threads" 10.0 (Pt.pipeline_bound t ~threads:10);
  (* With 3 threads: 1 replica; bottleneck 0.8. *)
  Alcotest.(check (float 1e-6)) "3 threads" 1.25 (Pt.pipeline_bound t ~threads:3)

let phase_of_node_works () =
  let g, a, b, c = three_stage_pdg () in
  let t = Pt.partition g ~enabled:(fun _ -> true) in
  Alcotest.(check bool) "a in A" true (Pt.phase_of_node t a = Ir.Task.A);
  Alcotest.(check bool) "b in B" true (Pt.phase_of_node t b = Ir.Task.B);
  Alcotest.(check bool) "c in C" true (Pt.phase_of_node t c = Ir.Task.C)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let planner_single_core () =
  Alcotest.(check bool) "sequential" true
    (Pl.plan (Machine.Config.default ~cores:1) = None)

let planner_two_cores () =
  match Pl.plan (Machine.Config.default ~cores:2) with
  | None -> Alcotest.fail "expected a plan"
  | Some a ->
    Alcotest.(check int) "A core" 0 a.Pl.a_core;
    Alcotest.(check int) "C shares core 0" 0 a.Pl.c_core;
    Alcotest.(check (list int)) "B core" [ 1 ] a.Pl.b_cores

let planner_many_cores () =
  match Pl.plan (Machine.Config.default ~cores:8) with
  | None -> Alcotest.fail "expected a plan"
  | Some a ->
    Alcotest.(check int) "A" 0 a.Pl.a_core;
    Alcotest.(check int) "C" 7 a.Pl.c_core;
    Alcotest.(check (list int)) "B pool" [ 1; 2; 3; 4; 5; 6 ] a.Pl.b_cores

let planner_b_count =
  Alcotest.test_case "cores are partitioned exactly" `Quick (fun () ->
      Check.Runner.run_prop_exn ~count:50 ~print:string_of_int
        ~name:"cores are partitioned exactly" QCheck2.Gen.(int_range 2 32)
        (fun n ->
          match Pl.plan (Machine.Config.default ~cores:n) with
          | None -> false
          | Some a ->
            let b = List.length a.Pl.b_cores in
            if n = 2 then b = 1 && a.Pl.a_core = a.Pl.c_core
            else b = n - 2 && a.Pl.a_core <> a.Pl.c_core))

let () =
  Alcotest.run "dswp"
    [
      ( "partition",
        [
          Alcotest.test_case "classic pipeline" `Quick partition_classic_pipeline;
          Alcotest.test_case "carried dep blocks" `Quick partition_carried_dep_blocks_parallel;
          Alcotest.test_case "breaker unlocks" `Quick partition_breaker_unlocks;
          Alcotest.test_case "non-replicable" `Quick partition_non_replicable_excluded;
          Alcotest.test_case "every node assigned" `Quick partition_every_node_assigned;
          Alcotest.test_case "pipeline bound" `Quick pipeline_bound_values;
          Alcotest.test_case "phase of node" `Quick phase_of_node_works;
        ] );
      ( "planner",
        [
          Alcotest.test_case "single core" `Quick planner_single_core;
          Alcotest.test_case "two cores" `Quick planner_two_cores;
          Alcotest.test_case "many cores" `Quick planner_many_cores;
          planner_b_count;
        ] );
    ]
