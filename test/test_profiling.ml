(* Tests for the instrumentation context and the memory profiler,
   including the property that the fast profiler agrees with the
   operational versioned-memory model on which RAW dependences exist. *)

module P = Profiling.Profile
module M = Profiling.Mem_profile

(* ------------------------------------------------------------------ *)
(* Profile structure                                                   *)

let profile_basic_trace () =
  let p = P.create ~name:"t" in
  P.serial_work p 10;
  P.begin_loop p "l";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.A ());
  P.work p 5;
  P.end_task p;
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.work p 20;
  P.end_task p;
  P.end_loop p;
  P.serial_work p 3;
  let t = P.trace p in
  Alcotest.(check int) "total work" 38 (Ir.Trace.total_work t);
  Alcotest.(check int) "segments" 3 (List.length t.Ir.Trace.segments);
  Alcotest.(check bool) "valid" true (Ir.Trace.validate t = Ok ())

let profile_loc_interning () =
  let p = P.create ~name:"t" in
  let a = P.loc p "x" in
  let b = P.loc p "x" in
  let c = P.loc p "y" in
  Alcotest.(check int) "same name same id" a b;
  Alcotest.(check bool) "different name" true (a <> c);
  Alcotest.(check string) "reverse" "x" (P.loc_name p a);
  Alcotest.(check (option int)) "lookup" (Some c) (P.loc_id p "y");
  Alcotest.(check (option int)) "missing" None (P.loc_id p "z")

let profile_no_nested_loops () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  Alcotest.check_raises "nested loop" (Invalid_argument "Profile.begin_loop: loops do not nest")
    (fun () -> P.begin_loop p "b")

let profile_no_nested_tasks () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.A ());
  Alcotest.check_raises "nested task" (Invalid_argument "Profile.begin_task: tasks do not nest")
    (fun () -> ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ()))

let profile_iteration_monotonic () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  ignore (P.begin_task p ~iteration:3 ~phase:Ir.Task.A ());
  P.end_task p;
  Alcotest.check_raises "iteration went backward"
    (Invalid_argument "Profile.begin_task: iterations must be non-decreasing") (fun () ->
      ignore (P.begin_task p ~iteration:2 ~phase:Ir.Task.A ()))

let profile_trace_requires_closed () =
  let p = P.create ~name:"t" in
  P.begin_loop p "a";
  Alcotest.check_raises "open loop"
    (Invalid_argument "Profile.trace: a loop or task is still open") (fun () ->
      ignore (P.trace p))

let profile_commutative_no_nest () =
  let p = P.create ~name:"t" in
  Alcotest.check_raises "nested commutative"
    (Invalid_argument "Profile.commutative: sections do not nest") (fun () ->
      P.commutative p ~group:"g" (fun () -> P.commutative p ~group:"h" (fun () -> ())))

(* Inside a loop an access needs an open task.  An unowned read used to
   be logged as task -1: after an in-task write, the profiler emitted
   edge 0 -> -1 and Framework.build died indexing task -1. *)
let profile_access_outside_task () =
  let p = P.create ~name:"t" in
  let x = P.loc p "x" in
  P.write p x 1;
  P.begin_loop p "l";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.A ());
  P.write p x 2;
  P.end_task p;
  Alcotest.check_raises "read between tasks"
    (Invalid_argument "Profile.read: inside a loop but no open task") (fun () -> P.read p x);
  Alcotest.check_raises "write between tasks"
    (Invalid_argument "Profile.write: inside a loop but no open task") (fun () -> P.write p x 3);
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.read p x;
  P.end_task p;
  P.end_loop p;
  let built = Core.Framework.build ~plan:Speculation.Spec_plan.default p in
  Alcotest.(check int) "one loop built" 1 (List.length built.Core.Framework.diagnostics)

(* ------------------------------------------------------------------ *)
(* Memory profiler                                                     *)

(* Helper: run a scripted loop of two tasks and return the cross-task
   edges. *)
let run_two_tasks script =
  let p = P.create ~name:"t" in
  let l = P.loc p "shared" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  script `First p l;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  script `Second p l;
  P.end_task p;
  P.end_loop p;
  M.analyze (P.log_of p "loop")

let mem_raw_edge () =
  let edges =
    run_two_tasks (fun which p l ->
        match which with `First -> P.write p l 42 | `Second -> P.read p l)
  in
  Alcotest.(check int) "one edge" 1 (List.length edges);
  let e = List.hd edges in
  Alcotest.(check int) "src" 0 e.M.src;
  Alcotest.(check int) "dst" 1 e.M.dst

let mem_iteration_distance () =
  let p = P.create ~name:"t" in
  let l = P.loc p "shared" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.write p l 42;
  P.end_task p;
  ignore (P.begin_task p ~iteration:2 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let log = P.log_of p "loop" in
  let iteration_of = function 0 -> 0 | _ -> 2 in
  (match M.analyze ~iteration_of log with
  | [ e ] -> Alcotest.(check (option int)) "distance recorded" (Some 2) e.M.distance
  | es -> Alcotest.failf "expected one edge, got %d" (List.length es));
  match M.analyze log with
  | [ e ] -> Alcotest.(check (option int)) "no mapping: no distance" None e.M.distance
  | es -> Alcotest.failf "expected one edge, got %d" (List.length es)

let mem_no_war_waw () =
  (* Second task writes (WAW) and the first only reads before any write
     (no producer): privatization means no edges at all. *)
  let edges =
    run_two_tasks (fun which p l ->
        match which with `First -> P.read p l | `Second -> P.write p l 1)
  in
  Alcotest.(check int) "no edges" 0 (List.length edges)

let mem_silent_store_filtered () =
  let p = P.create ~name:"t" in
  let l = P.loc p "s" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.write p l 5;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.write p l 5 (* silent: same value *);
  P.end_task p;
  ignore (P.begin_task p ~iteration:2 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let log = P.log_of p "loop" in
  let with_hw = M.analyze log in
  Alcotest.(check int) "silent-store hardware: reader depends on task 0" 1
    (List.length with_hw);
  Alcotest.(check int) "src is the original writer" 0 (List.hd with_hw).M.src;
  let without = M.analyze ~config:{ M.silent_stores = false } log in
  Alcotest.(check int) "without hardware: depends on task 1" 1 (List.hd without).M.src

let mem_commutative_group_tagged () =
  let p = P.create ~name:"t" in
  let l = P.loc p "seed" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.commutative p ~group:"rng" (fun () -> P.write p l 1);
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.commutative p ~group:"rng" (fun () -> P.read p l);
  P.end_task p;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check int) "one edge" 1 (List.length edges);
  Alcotest.(check (option string)) "tagged with group" (Some "rng") (List.hd edges).M.group

let mem_mixed_groups_not_tagged () =
  let p = P.create ~name:"t" in
  let l = P.loc p "x" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.commutative p ~group:"g1" (fun () -> P.write p l 1);
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.commutative p ~group:"g2" (fun () -> P.read p l);
  P.end_task p;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check (option string)) "different groups: untagged" None (List.hd edges).M.group

let mem_value_prediction () =
  let p = P.create ~name:"t" in
  let l = P.loc p "status" in
  P.begin_loop p "loop";
  for i = 0 to 3 do
    ignore (P.begin_task p ~iteration:i ~phase:Ir.Task.B ());
    if i > 0 then P.read p l;
    P.write p l 7 (* would be silent except the first *);
    P.end_task p
  done;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  (* Under silent stores only task 0's write survives, so reads in tasks
     2 and 3 still depend on task 0.  The first cross-task read is a cold
     miss; subsequent ones observe the same value: predicted. *)
  let predicted = List.filter (fun e -> e.M.predicted) edges in
  let cold = List.filter (fun e -> not e.M.predicted) edges in
  Alcotest.(check int) "cold misses" 1 (List.length cold);
  Alcotest.(check int) "predicted" 2 (List.length predicted)

let mem_initial_values_seed_silence () =
  (* A location initialized before the loop makes an identical in-loop
     store silent. *)
  let p = P.create ~name:"t" in
  let l = P.loc p "flag" in
  P.write p l 9 (* outside any loop: architectural init *);
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.write p l 9;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check int) "silent in-loop store: no cross-task edge" 0 (List.length edges)

let mem_cross_iteration_filter () =
  let p = P.create ~name:"t" in
  let l = P.loc p "x" in
  P.begin_loop p "loop";
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.A ());
  P.write p l 1;
  P.end_task p;
  ignore (P.begin_task p ~iteration:0 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  ignore (P.begin_task p ~iteration:1 ~phase:Ir.Task.B ());
  P.read p l;
  P.end_task p;
  P.end_loop p;
  let trace = P.trace p in
  let loop = Ir.Trace.find_loop trace "loop" in
  let edges = M.analyze (P.log_of p "loop") in
  Alcotest.(check int) "two edges" 2 (List.length edges);
  Alcotest.(check int) "one crosses iterations" 1
    (List.length (M.cross_iteration loop edges))

(* Property: the fast profiler and the operational versioned memory agree
   on the set of (writer, reader, loc) RAW pairs when each task's
   accesses replay in order and commits happen in task order after all
   reads of logically later tasks that precede them in sequential order.
   We check the simpler sequential-consistency form: every edge the
   profiler reports corresponds to a read that the versioned memory would
   have flagged as a violation had the tasks run fully overlapped. *)
let profiler_agrees_with_versioned_memory =
  Alcotest.test_case "profiler RAW = versioned-memory violations" `Quick (fun () ->
      Check.Runner.run_prop_exn ~count:200
        ~print:QCheck2.Print.(list (triple int int (option int)))
        ~name:"profiler RAW = versioned-memory violations"
        QCheck2.Gen.(
          list_size (int_range 1 30)
            (triple (int_bound 3) (int_bound 2) (option (int_bound 5))))
        (fun ops ->
          (* ops in sequential order; (task, loc, Some v = write / None = read);
             tasks execute their slices in task order, so sort by task. *)
          let ops =
            List.stable_sort (fun (t1, _, _) (t2, _, _) -> compare t1 t2) ops
          in
          let tasks_used = List.sort_uniq compare (List.map (fun (t, _, _) -> t) ops) in
          (* Profiler side. *)
          let p = P.create ~name:"prop" in
          let locs = Array.init 3 (fun i -> P.loc p (Printf.sprintf "l%d" i)) in
          P.begin_loop p "loop";
          List.iteri
            (fun idx t ->
              ignore (P.begin_task p ~iteration:idx ~phase:Ir.Task.B ());
              List.iter
                (fun (t', l, op) ->
                  if t' = t then
                    match op with
                    | Some v -> P.write p locs.(l) v
                    | None -> P.read p locs.(l))
                ops;
              P.end_task p)
            tasks_used;
          P.end_loop p;
          let edges =
            M.analyze ~config:{ M.silent_stores = false } (P.log_of p "loop")
          in
          (* Operational side: all tasks open, replay in sequential order,
             then commit in order.  A cross-task RAW exists iff the reader
             observed a value from an earlier open version. *)
          let m = Machine.Versioned_memory.create ~silent_stores:false () in
          List.iteri (fun idx _ -> Machine.Versioned_memory.begin_task m ~task:idx) tasks_used;
          let observed = Hashtbl.create 16 in
          List.iteri
            (fun idx t ->
              List.iter
                (fun (t', l, op) ->
                  if t' = t then
                    match op with
                    | Some v -> Machine.Versioned_memory.write m ~task:idx ~loc:l v
                    | None -> ignore (Machine.Versioned_memory.read m ~task:idx ~loc:l))
                ops;
              ignore idx)
            tasks_used;
          List.iteri
            (fun idx _ ->
              List.iter
                (fun (v : Machine.Versioned_memory.violation) ->
                  Hashtbl.replace observed
                    (v.Machine.Versioned_memory.writer_task,
                     v.Machine.Versioned_memory.violated_task, v.Machine.Versioned_memory.loc)
                    ())
                (Machine.Versioned_memory.commit m ~task:idx))
            tasks_used;
          (* The operational model only flags reads that happened before
             the write (true violations); the profiler reports every
             cross-task RAW.  Violations must be a subset of RAW edges. *)
          Hashtbl.fold
            (fun (w, r, l) () acc ->
              acc && List.exists (fun e -> e.M.src = w && e.M.dst = r && e.M.loc = l) edges)
            observed true))

(* Property: the dependence build equals the verbatim reference
   (test/ref_build.ml) on random access logs.  Tasks come in any order
   and repeat, values repeat (silent stores, correct predictions), reads
   and writes may sit in commutative groups, and location ids include a
   negative and a far one (renumbered densely).  Reads come from tasks
   0..5; writes also from task -1, as Profile seeds pre-loop memory.
   Resolve then runs on a six-task loop with explicit dependences under a
   random plan, and Input.make_loop merges the resolved edges. *)
type log_case = {
  entries : (int * int * int option * string option * int) list;
      (* task, loc, Some v = write / None = read, group, offset *)
  silent : bool;
  iterations : bool;
  phases : int list;
  deps : (int * int * int) list;  (* src, dst, kind *)
  alias : int;
  value : int list;
  sync : int list;
  control : bool;
  groups : string list;
}

let log_locs = [| 0; 1; 2; 3; -7; 1_000_000 |]

let log_case =
  let open QCheck2.Gen in
  let group = oneofl [ None; Some "g"; Some "h" ] in
  let entry =
    let* write = bool in
    let* task = if write then int_range (-1) 5 else int_range 0 5 in
    let* loc = int_bound (Array.length log_locs - 1) in
    let* v = int_bound 3 in
    let* g = group in
    let* offset = int_bound 9 in
    return (task, log_locs.(loc), (if write then Some v else None), g, offset)
  in
  let locs = list_size (int_bound 3) (int_bound (Array.length log_locs - 1)) in
  let* entries = list_size (int_range 0 60) entry in
  let* silent = bool in
  let* iterations = bool in
  (* Two tasks per iteration, never two A or two C tasks. *)
  let* pairs = list_repeat 3 (oneofl [ (0, 1); (1, 0); (0, 2); (2, 0); (1, 2); (2, 1); (1, 1) ]) in
  let phases = List.concat_map (fun (x, y) -> [ x; y ]) pairs in
  let* deps = list_size (int_bound 4) (triple (int_bound 5) (int_bound 5) (int_bound 2)) in
  let* alias = int_bound 2 in
  let* value = locs in
  let* sync = locs in
  let* control = bool in
  let* groups = oneofl [ []; [ "g" ]; [ "g"; "h" ] ] in
  return { entries; silent; iterations; phases; deps; alias; value; sync; control; groups }

let print_log_case c =
  Printf.sprintf "silent=%b iterations=%b phases=[%s] deps=%d alias=%d control=%b groups=[%s]\n%s"
    c.silent c.iterations
    (String.concat ";" (List.map string_of_int c.phases))
    (List.length c.deps) c.alias c.control (String.concat ";" c.groups)
    (String.concat "\n"
       (List.map
          (fun (t, l, op, g, o) ->
            Printf.sprintf "  task %d loc %d %s%s off %d" t l
              (match op with Some v -> Printf.sprintf "write %d" v | None -> "read")
              (match g with Some g -> " group " ^ g | None -> "")
              o)
          c.entries))

let build_matches_reference =
  Alcotest.test_case "dependence build = reference on random logs" `Quick (fun () ->
      Check.Runner.run_prop_exn ~print:print_log_case
        ~name:"dependence build = reference on random logs" log_case (fun c ->
          let log = Profiling.Access_log.create () in
          List.iter
            (fun (task, loc, op, group, offset) ->
              let op = match op with Some v -> Profiling.Access_log.Write v | None -> Read in
              Profiling.Access_log.record log ~task ~loc ~op ?group ~offset ())
            c.entries;
          let config = { M.silent_stores = c.silent } in
          let iteration_of = if c.iterations then Some (fun t -> t / 2) else None in
          let edges = M.analyze ~config ?iteration_of log in
          let name i = Printf.sprintf "l%d" log_locs.(i) in
          let commutative = Annotations.Commutative.create () in
          List.iter (fun g -> Annotations.Commutative.annotate commutative ~fn:g ()) c.groups;
          let plan =
            Speculation.Spec_plan.make
              ~alias:
                (match c.alias with
                | 0 -> Speculation.Spec_plan.No_alias
                | 1 -> Speculation.Spec_plan.Alias_all
                | _ -> Speculation.Spec_plan.Alias_locs (List.map name c.value))
              ~value_locs:(List.map name c.value) ~sync_locs:(List.map name c.sync)
              ~control_speculated:c.control ~commutative ()
          in
          let tasks =
            Array.of_list
              (List.mapi
                 (fun id ph ->
                   Ir.Task.make ~id ~iteration:(id / 2)
                     ~phase:[| Ir.Task.A; Ir.Task.B; Ir.Task.C |].(ph)
                     ~work:1 ())
                 c.phases)
          in
          let loop =
            {
              Ir.Trace.loop_name = "l";
              tasks;
              explicit_deps =
                List.filter_map
                  (fun (src, dst, k) ->
                    if src = dst then None
                    else
                      Some
                        (Ir.Dep.make ~src ~dst
                           ~kind:[| Ir.Dep.Register; Ir.Dep.Memory; Ir.Dep.Control |].(k)
                           ()))
                  c.deps;
            }
          in
          let loc_name l = Printf.sprintf "l%d" l in
          let resolved = Speculation.Resolve.resolve ~plan ~loc_name ~loop ~mem_edges:edges in
          let sim_input r =
            Sim.Input.make_loop ~name:"l" ~tasks ~edges:(Ref_build.Framework.sim_edges (fst r))
          in
          edges = Ref_build.Mem_profile.analyze ~config ?iteration_of log
          && resolved = Ref_build.Resolve.resolve ~plan ~loc_name ~loop ~mem_edges:edges
          && (sim_input resolved).Sim.Input.edges
             = (Ref_build.Input.make_loop ~name:"l" ~tasks
                  ~edges:(Ref_build.Framework.sim_edges (fst resolved)))
                 .Sim.Input.edges))

let () =
  Alcotest.run "profiling"
    [
      ( "profile",
        [
          Alcotest.test_case "basic trace" `Quick profile_basic_trace;
          Alcotest.test_case "loc interning" `Quick profile_loc_interning;
          Alcotest.test_case "no nested loops" `Quick profile_no_nested_loops;
          Alcotest.test_case "no nested tasks" `Quick profile_no_nested_tasks;
          Alcotest.test_case "iteration monotonic" `Quick profile_iteration_monotonic;
          Alcotest.test_case "trace requires closed" `Quick profile_trace_requires_closed;
          Alcotest.test_case "commutative no nest" `Quick profile_commutative_no_nest;
          Alcotest.test_case "access outside a task" `Quick profile_access_outside_task;
        ] );
      ( "mem-profile",
        [
          Alcotest.test_case "RAW edge" `Quick mem_raw_edge;
          Alcotest.test_case "iteration distance" `Quick mem_iteration_distance;
          Alcotest.test_case "no WAR/WAW" `Quick mem_no_war_waw;
          Alcotest.test_case "silent store" `Quick mem_silent_store_filtered;
          Alcotest.test_case "commutative tag" `Quick mem_commutative_group_tagged;
          Alcotest.test_case "mixed groups" `Quick mem_mixed_groups_not_tagged;
          Alcotest.test_case "value prediction" `Quick mem_value_prediction;
          Alcotest.test_case "initial values" `Quick mem_initial_values_seed_silence;
          Alcotest.test_case "cross-iteration filter" `Quick mem_cross_iteration_filter;
          build_matches_reference;
          profiler_agrees_with_versioned_memory;
        ] );
    ]
