(* Tests for the pipeline simulator: hand-checked schedules, policies,
   queue effects, and property-based invariants against the analytic
   bounds. *)

module I = Sim.Input
module P = Sim.Pipeline

(* Every schedule simulated by this binary is re-checked by the oracle
   (Sim.Oracle) — dune runtest validates what it simulates. *)
let () = P.validate_default := true

let cfg ?(lat = 0) ?(cap = 32) cores =
  Machine.Config.make ~cores ~queue_capacity:cap ~comm_latency:lat ()

(* Build a loop from per-iteration (a, bs, c) work tuples plus explicit
   B-to-B edges given as (src iteration, src intra, dst iteration,
   dst intra, speculated). *)
let build_loop ?(name = "l") iters edges =
  let tasks = ref [] in
  let id = ref 0 in
  let b_ids = Hashtbl.create 16 in
  List.iteri
    (fun i (a, bs, c) ->
      (match a with
      | Some w ->
        tasks := Ir.Task.make ~id:!id ~iteration:i ~phase:Ir.Task.A ~work:w () :: !tasks;
        incr id
      | None -> ());
      List.iteri
        (fun j w ->
          Hashtbl.replace b_ids (i, j) !id;
          tasks := Ir.Task.make ~id:!id ~iteration:i ~phase:Ir.Task.B ~intra:j ~work:w () :: !tasks;
          incr id)
        bs;
      match c with
      | Some w ->
        tasks := Ir.Task.make ~id:!id ~iteration:i ~phase:Ir.Task.C ~work:w () :: !tasks;
        incr id
      | None -> ())
    iters;
  let edges =
    List.map
      (fun (si, sj, di, dj, speculated) ->
        {
          I.src = Hashtbl.find b_ids (si, sj);
          dst = Hashtbl.find b_ids (di, dj);
          speculated;
          src_offset = 0;
          dst_offset = 0;
        })
      edges
  in
  I.make_loop ~name ~tasks:(Array.of_list (List.rev !tasks)) ~edges

let span ?policy c loop = (P.run_loop c ?policy loop).P.span

(* ------------------------------------------------------------------ *)
(* Hand-checked schedules                                              *)

let single_iteration_chain () =
  let loop = build_loop [ (Some 2, [ 10 ], Some 3) ] [] in
  (* One iteration: A then B then C back to back, zero latency. *)
  Alcotest.(check int) "span" 15 (span (cfg 4) loop)

let single_core_is_serial () =
  let loop = build_loop [ (Some 2, [ 10 ], Some 3); (Some 2, [ 10 ], Some 3) ] [] in
  Alcotest.(check int) "sum of work" 30 (span (cfg 1) loop)

let perfect_parallel_b () =
  (* Four independent B-only iterations on four B cores: span = one task. *)
  let loop = build_loop (List.init 4 (fun _ -> (None, [ 10 ], None))) [] in
  Alcotest.(check int) "span" 10 (span (cfg 6) loop)

let b_tasks_share_one_core () =
  let loop = build_loop (List.init 4 (fun _ -> (None, [ 10 ], None))) [] in
  (* 3 cores -> 1 B core: all four B tasks serialize there. *)
  Alcotest.(check int) "span" 40 (span (cfg 3) loop)

let sync_chain_serializes () =
  let loop =
    build_loop
      (List.init 4 (fun _ -> (None, [ 10 ], None)))
      [ (0, 0, 1, 0, false); (1, 0, 2, 0, false); (2, 0, 3, 0, false) ]
  in
  Alcotest.(check int) "fully serial" 40 (span (cfg 6) loop)

let speculated_chain_serializes_too () =
  (* Under the paper's Serialize policy, dynamically-occurring speculated
     dependences cost exactly their serialization. *)
  let loop =
    build_loop
      (List.init 4 (fun _ -> (None, [ 10 ], None)))
      [ (0, 0, 1, 0, true); (1, 0, 2, 0, true); (2, 0, 3, 0, true) ]
  in
  Alcotest.(check int) "fully serial" 40 (span (cfg 6) loop)

let a_stage_bottleneck () =
  (* Heavy A: the serial producer bounds the span. *)
  let loop = build_loop (List.init 5 (fun _ -> (Some 10, [ 2 ], None))) [] in
  let s = span (cfg 8) loop in
  Alcotest.(check bool) "A-bound" true (s >= 50 && s <= 53)

let c_stage_bottleneck () =
  let loop = build_loop (List.init 5 (fun _ -> (None, [ 2 ], Some 10))) [] in
  let s = span (cfg 8) loop in
  Alcotest.(check bool) "C-bound" true (s >= 50 && s <= 55)

let queue_capacity_limits_lookahead () =
  (* Tiny in-queues force the A producer to stall; with capacity 32 it
     streams ahead.  Both must finish, capacity 1 no later than... it is
     at least as slow. *)
  let iters = List.init 20 (fun _ -> (Some 1, [ 10 ], None)) in
  let loop_fast = build_loop iters [] in
  let s_small = span (cfg ~cap:1 4) loop_fast in
  let s_big = span (cfg ~cap:32 4) loop_fast in
  Alcotest.(check bool) "small queues never faster" true (s_small >= s_big)

let two_core_plan_shares_a_and_c () =
  let loop = build_loop (List.init 3 (fun _ -> (Some 2, [ 10 ], Some 2))) [] in
  let s = span (cfg 2) loop in
  (* A and C work (12) shares core 0; B work (30) on core 1; span at
     least the B total and at most the serial total. *)
  Alcotest.(check bool) "range" true (s >= 30 && s <= 42)

let latency_adds_pipeline_fill () =
  let loop = build_loop [ (Some 2, [ 10 ], Some 3) ] [] in
  let s0 = span (cfg ~lat:0 4) loop in
  let s5 = span (cfg ~lat:5 4) loop in
  Alcotest.(check int) "two hops" (s0 + 10) s5

let zero_iteration_loop () =
  let loop = build_loop [] [] in
  Alcotest.(check int) "empty" 0 (span (cfg 4) loop)

let misspec_counted () =
  let loop =
    build_loop
      (List.init 2 (fun _ -> (None, [ 10 ], None)))
      [ (0, 0, 1, 0, true) ]
  in
  let r = P.run_loop (cfg 6) loop in
  Alcotest.(check int) "one delayed task" 1 r.P.misspec_delayed

let dynamic_assignment_balances () =
  (* 8 equal B tasks over 2 B cores: 4 each. *)
  let loop = build_loop (List.init 8 (fun _ -> (None, [ 10 ], None))) [] in
  let r = P.run_loop (cfg 4) loop in
  Alcotest.(check (array int)) "balanced" [| 4; 4 |] r.P.b_tasks_per_core

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)

let squash_counts_reexecution () =
  let loop =
    build_loop
      (List.init 2 (fun _ -> (None, [ 10 ], None)))
      [ (0, 0, 1, 0, true) ]
  in
  let r = P.run_loop (cfg 6) ~policy:{ P.misspec = P.Squash; forwarding = false } loop in
  Alcotest.(check bool) "at least one squash" true (r.P.squashes >= 1);
  (* The re-executed consumer finishes after the producer plus its work. *)
  Alcotest.(check bool) "span covers re-execution" true (r.P.span >= 20)

let forwarding_enables_overlap () =
  (* Producer writes early (offset 1), consumer reads late (offset 9):
     forwarding lets them overlap almost fully. *)
  let tasks =
    [|
      Ir.Task.make ~id:0 ~iteration:0 ~phase:Ir.Task.B ~work:10 ();
      Ir.Task.make ~id:1 ~iteration:1 ~phase:Ir.Task.B ~work:10 ();
    |]
  in
  let edge so dofs =
    [ { I.src = 0; dst = 1; speculated = false; src_offset = so; dst_offset = dofs } ]
  in
  let loop = I.make_loop ~name:"f" ~tasks ~edges:(edge 1 9) in
  let s_nofwd = span (cfg 6) loop in
  let s_fwd =
    span (cfg 6) ~policy:{ P.misspec = P.Serialize; forwarding = true } loop
  in
  Alcotest.(check int) "serialized" 20 s_nofwd;
  Alcotest.(check bool) "forwarding overlaps" true (s_fwd < s_nofwd);
  Alcotest.(check int) "constraint start >= 1+0-9 clamp" 10 s_fwd

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* Random loops from Check.Gen_ir: up to 10 iterations of up to three
   B tasks, A and C tasks that may be absent, and up to 8 forward B-to-B
   edges, each possibly speculated.  The descriptor prints a shrunk
   counterexample. *)
let prop_test ?(count = 150) name prop =
  Alcotest.test_case name `Quick (fun () ->
      Check.Runner.run_prop_exn ~count ~print:Check.Gen_ir.show_loop_desc ~name
        (Check.Gen_ir.loop_desc ())
        (fun d -> prop (Check.Gen_ir.build_loop d)))

let prop_within_bounds =
  prop_test "span within analytic bounds (zero latency)" (fun loop ->
      List.for_all
        (fun cores ->
          let c = cfg cores in
          let s = span c loop in
          s >= Sim.Analytic.lower_bound c loop && s <= Sim.Analytic.upper_bound loop)
        [ 2; 4; 8; 32 ])

let prop_single_core_exact =
  prop_test "single core = total work" (fun loop ->
      span (cfg 1) loop = I.loop_work loop)

let prop_deterministic =
  prop_test "simulation is deterministic" (fun loop ->
      span (cfg 5) loop = span (cfg 5) loop)

(* Note: "squash is never slower than serialize" and "forwarding is never
   slower" are NOT theorems — squash relieves head-of-line blocking and
   forwarding changes dispatch interleavings, so Graham-style scheduling
   anomalies cut both ways.  The sound properties are about work
   conservation and bounds. *)

let prop_squash_wastes_work =
  prop_test "squash adds exactly the re-executed work" (fun loop ->
      let r = P.run_loop (cfg 6) ~policy:{ P.misspec = P.Squash; forwarding = false } loop in
      let busy = Array.fold_left ( + ) 0 r.P.busy in
      busy >= I.loop_work loop && (r.P.squashes > 0 || busy = I.loop_work loop))

let prop_squash_within_bounds =
  prop_test "squash span within bounds" (fun loop ->
      let c = cfg 6 in
      let s = span c ~policy:{ P.misspec = P.Squash; forwarding = false } loop in
      (* The critical path still bounds below: a squashed consumer
         re-finishes after its producer plus its own work. *)
      s >= Sim.Analytic.lower_bound c loop)

let prop_forwarding_within_bounds =
  prop_test "forwarding span within phase bounds" (fun loop ->
      let s =
        span (cfg 6) ~policy:{ P.misspec = P.Serialize; forwarding = true } loop
      in
      (* Forwarding can beat the task-level critical path, but never the
         serial-stage bottlenecks or the B-stage work bound. *)
      let wa, wb, wc = Sim.Analytic.phase_work loop in
      let b_bound = (wb + 3) / 4 in
      s >= wa && s >= wc && s >= b_bound && s <= Sim.Analytic.upper_bound loop)

let prop_busy_conservation =
  prop_test "busy work equals loop work (no squash)" (fun loop ->
      let r = P.run_loop (cfg 7) loop in
      Array.fold_left ( + ) 0 r.P.busy = I.loop_work loop)

let schedule_is_valid (loop : I.loop) (r : P.loop_result) =
  let n = Array.length loop.I.tasks in
  (* Every task appears exactly once with the right duration... *)
  let seen = Array.make n 0 in
  let durations_ok =
    List.for_all
      (fun (e : P.sched_entry) ->
        seen.(e.P.s_task) <- seen.(e.P.s_task) + 1;
        e.P.s_finish - e.P.s_start = loop.I.tasks.(e.P.s_task).Ir.Task.work
        && e.P.s_start >= 0 && e.P.s_finish <= r.P.span)
      r.P.schedule
  in
  let coverage_ok = Array.for_all (fun c -> c = 1) seen in
  (* ...and intervals on one core never overlap. *)
  let by_core = Hashtbl.create 8 in
  List.iter
    (fun (e : P.sched_entry) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_core e.P.s_core) in
      Hashtbl.replace by_core e.P.s_core ((e.P.s_start, e.P.s_finish) :: cur))
    r.P.schedule;
  let overlap_free =
    Hashtbl.fold
      (fun _ intervals acc ->
        let sorted = List.sort compare intervals in
        let rec ok = function
          | (_, f1) :: ((s2, _) :: _ as rest) -> f1 <= s2 && ok rest
          | _ -> true
        in
        acc && ok sorted)
      by_core true
  in
  durations_ok && coverage_ok && overlap_free

let prop_schedule_valid =
  prop_test "schedule covers tasks, durations match, no core overlap" (fun loop ->
      List.for_all
        (fun cores -> schedule_is_valid loop (P.run_loop (cfg cores) loop))
        [ 1; 2; 4; 9 ])

let prop_schedule_valid_squash =
  prop_test "schedule stays valid under squash" (fun loop ->
      let r = P.run_loop (cfg 6) ~policy:{ P.misspec = P.Squash; forwarding = false } loop in
      schedule_is_valid loop r)

(* ------------------------------------------------------------------ *)
(* Squash accounting regressions                                       *)

let squash_policy = { P.misspec = P.Squash; forwarding = false }

let squash_charges_only_elapsed () =
  (* B1 (work 50) starts speculatively at t=0 on its own core; its
     producer B0 (work 10) finishes at t=10 and squashes it.  The
     aborted run really occupied the core for 10 units, so busy must
     charge 10, not the full 50 (the seed charged 50 and then 50 again
     for the re-run, pushing the core's busy past the span). *)
  let loop =
    build_loop [ (None, [ 10 ], None); (None, [ 50 ], None) ] [ (0, 0, 1, 0, true) ]
  in
  let r = P.run_loop (cfg 4) ~policy:squash_policy loop in
  Alcotest.(check bool) "squashed at least once" true (r.P.squashes >= 1);
  Array.iteri
    (fun c b ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d busy %d within span %d" c b r.P.span)
        true (b <= r.P.span))
    r.P.busy;
  Alcotest.(check int) "total busy = work + elapsed of the aborted run"
    (I.loop_work loop + 10)
    (Array.fold_left ( + ) 0 r.P.busy)

let squash_reinsert_tracks_high_water () =
  (* Capacity-1 queues.  B1 (work 2) completes early and sits
     uncommitted in its out-queue; the dispatcher refills its in-queue
     slot with B2.  When B0 (work 10) finishes at t=10 it squashes the
     completed B1, whose push_front re-insert drives that in-queue to 2
     entries — one past the capacity.  The seed bumped the occupancy
     without updating the high-water mark, so the result (and the
     oracle's queue-bounds check) never saw the excursion. *)
  let cap = 1 in
  let loop =
    build_loop
      [ (None, [ 10 ], Some 1); (None, [ 2 ], Some 1); (None, [ 4 ], Some 1) ]
      [ (0, 0, 1, 0, true) ]
  in
  let r = P.run_loop (cfg ~cap 4) ~policy:squash_policy loop in
  Alcotest.(check bool) "squashed at least once" true (r.P.squashes >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "re-insert excursion observed (high water %d > capacity %d)"
       r.P.in_queue_high_water cap)
    true
    (r.P.in_queue_high_water > cap);
  Alcotest.(check bool) "within the per-squash allowance" true
    (r.P.in_queue_high_water <= cap + r.P.squashes)

(* ------------------------------------------------------------------ *)
(* Speedup sweeps                                                      *)

let sweep_program () =
  let loop = build_loop (List.init 10 (fun _ -> (Some 1, [ 20 ], Some 1))) [] in
  I.make ~name:"prog" ~segments:[ I.Serial 10; I.Parallel loop ]

let speedup_baseline_one () =
  let series = Sim.Speedup.sweep ~threads:[ 1; 4 ] ~label:"t" (sweep_program ()) in
  match Sim.Speedup.at_threads series 1 with
  | Some p -> Alcotest.(check (float 1e-6)) "speedup 1" 1.0 p.Sim.Speedup.speedup
  | None -> Alcotest.fail "missing point"

let speedup_best_prefers_min_threads () =
  let series = Sim.Speedup.sweep ~threads:[ 1; 2; 4; 8; 16; 32 ] ~label:"t" (sweep_program ()) in
  let b = Sim.Speedup.best series in
  (* 10 iterations: beyond ~12 cores nothing improves, so best should
     not report 32 threads. *)
  Alcotest.(check bool) "min threads at max speedup" true (b.Sim.Speedup.threads <= 16)

let moore_speedup_values () =
  Alcotest.(check (float 1e-6)) "1 thread" 1.0 (Sim.Speedup.moore_speedup ~threads:1);
  Alcotest.(check (float 1e-6)) "2 threads" 1.4 (Sim.Speedup.moore_speedup ~threads:2);
  Alcotest.(check (float 1e-3)) "32 threads" 5.378 (Sim.Speedup.moore_speedup ~threads:32)

let analytic_critical_path () =
  let loop = build_loop [ (Some 2, [ 10 ], Some 3); (Some 2, [ 10 ], Some 3) ] [] in
  (* Longest path: A0 B0 C0 C1 = 2+10+3+3 = 18?  Or A0 A1 B1 C1 = 17; the
     true critical path threads B0->C0->C1 = 18. *)
  Alcotest.(check int) "critical path" 18 (Sim.Analytic.critical_path loop)

(* ------------------------------------------------------------------ *)
(* TLS-style plan                                                      *)

let tls_independent_iterations () =
  let loop = build_loop (List.init 8 (fun _ -> (None, [ 10 ], None))) [] in
  let r = Sim.Tls_plan.run_loop (cfg 4) loop in
  (* 8 iterations over 4 cores: two rounds. *)
  Alcotest.(check int) "span" 20 r.Sim.Tls_plan.span;
  Alcotest.(check int) "commits" 8 r.Sim.Tls_plan.commits

let tls_chain_serializes () =
  let loop =
    build_loop
      (List.init 4 (fun _ -> (None, [ 10 ], None)))
      [ (0, 0, 1, 0, true); (1, 0, 2, 0, true); (2, 0, 3, 0, true) ]
  in
  let r = Sim.Tls_plan.run_loop (cfg 4) loop in
  Alcotest.(check int) "serial" 40 r.Sim.Tls_plan.span;
  Alcotest.(check int) "all delayed" 3 r.Sim.Tls_plan.misspec_delayed

let tls_buffer_limits_lookahead () =
  let loop = build_loop (List.init 40 (fun _ -> (None, [ 10 ], None))) [] in
  let small = Sim.Tls_plan.run_loop (cfg ~cap:2 8) loop in
  let big = Sim.Tls_plan.run_loop (cfg ~cap:32 8) loop in
  Alcotest.(check bool) "small buffers never faster" true
    (small.Sim.Tls_plan.span >= big.Sim.Tls_plan.span)

let tls_single_core_serial () =
  let loop = build_loop (List.init 3 (fun _ -> (Some 2, [ 10 ], Some 1))) [] in
  Alcotest.(check int) "sequential" 39 (Sim.Tls_plan.run_loop (cfg 1) loop).Sim.Tls_plan.span

let tls_c_after_b () =
  (* Each iteration runs A (work 1), B tasks at intra 0 and 1 (2 and 4),
     then C (8) although C's intra is 0, so C's offset is 1 + 2 + 4 = 7.
     C forwards a value at offset 1 to the next iteration's A, which on
     a free core starts at 7 + 1 = 8 and commits at 8 + 15. *)
  let task id iteration phase intra work =
    Ir.Task.make ~id ~iteration ~phase ~intra ~work ()
  in
  let tasks =
    Array.concat
      (List.init 2 (fun i ->
           let o = 4 * i in
           [|
             task o i Ir.Task.A 0 1;
             task (o + 1) i Ir.Task.B 0 2;
             task (o + 2) i Ir.Task.B 1 4;
             task (o + 3) i Ir.Task.C 0 8;
           |]))
  in
  let edges = [ { I.src = 3; dst = 4; speculated = false; src_offset = 1; dst_offset = 0 } ] in
  let r = Sim.Tls_plan.run_loop (cfg 2) (I.make_loop ~name:"c-after-b" ~tasks ~edges) in
  Alcotest.(check int) "span" 23 r.Sim.Tls_plan.span;
  Alcotest.(check int) "delayed" 1 r.Sim.Tls_plan.misspec_delayed

let tls_within_bounds =
  prop_test ~count:80 "TLS span within its analytic envelope" (fun loop ->
      (* Unlike DSWP, TLS buffers phase-C work into the speculative
         iteration, so the task-level critical path does not bound it;
         the sound lower bounds are the heaviest single iteration and
         the work/cores ratio. *)
      let c = cfg 8 in
      let tls = (Sim.Tls_plan.run_loop c loop).Sim.Tls_plan.span in
      let iters = I.iterations loop in
      let iter_work = Array.make iters 0 in
      Array.iter
        (fun (t : Ir.Task.t) ->
          iter_work.(t.Ir.Task.iteration) <-
            iter_work.(t.Ir.Task.iteration) + t.Ir.Task.work)
        loop.I.tasks;
      let heaviest = Array.fold_left max 0 iter_work in
      let per_core = (I.loop_work loop + 7) / 8 in
      tls >= heaviest && tls >= per_core && tls <= Sim.Analytic.upper_bound loop)

(* ------------------------------------------------------------------ *)
(* Input edge merging                                                  *)

let input_merges_duplicate_edges () =
  let tasks =
    [|
      Ir.Task.make ~id:0 ~iteration:0 ~phase:Ir.Task.B ~work:5 ();
      Ir.Task.make ~id:1 ~iteration:1 ~phase:Ir.Task.B ~work:5 ();
    |]
  in
  let e spec so d_o = { I.src = 0; dst = 1; speculated = spec; src_offset = so; dst_offset = d_o } in
  let loop = I.make_loop ~name:"m" ~tasks ~edges:[ e true 3 4; e false 1 2 ] in
  (match loop.I.edges with
  | [ merged ] ->
    Alcotest.(check bool) "synchronized dominates" false merged.I.speculated;
    Alcotest.(check int) "max src offset" 3 merged.I.src_offset;
    Alcotest.(check int) "min dst offset" 2 merged.I.dst_offset
  | es -> Alcotest.failf "expected 1 merged edge, got %d" (List.length es));
  Alcotest.check_raises "two A tasks rejected"
    (Invalid_argument "Input.make_loop: iteration 0 has 2 A tasks") (fun () ->
      ignore
        (I.make_loop ~name:"bad"
           ~tasks:
             [|
               Ir.Task.make ~id:0 ~iteration:0 ~phase:Ir.Task.A ~work:1 ();
               Ir.Task.make ~id:1 ~iteration:0 ~phase:Ir.Task.A ~work:1 ();
             |]
           ~edges:[]))

(* ------------------------------------------------------------------ *)
(* Gantt rendering                                                     *)

let gantt_renders_rows () =
  let loop = build_loop (List.init 4 (fun _ -> (Some 2, [ 10 ], Some 1))) [] in
  let r = P.run_loop (cfg 4) loop in
  let text = Sim.Gantt.render ~cores:4 ~span:r.P.span r.P.schedule in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "one row per core" 4 (List.length lines);
  Alcotest.(check bool) "tasks painted" true (String.contains text 'a')

let gantt_empty_schedule () =
  let text = Sim.Gantt.render ~cores:2 ~span:0 [] in
  Alcotest.(check bool) "renders" true (String.length text > 0)

let gantt_zero_work_marker () =
  (* A zero-work task occupies no time; drawing it as a filled cell
     misrepresents the schedule.  It gets an instant marker instead,
     and never overwrites a real task. *)
  let zero = { P.s_task = 0; s_core = 0; s_start = 5; s_finish = 5 } in
  let text = Sim.Gantt.render ~width:20 ~cores:1 ~span:10 [ zero ] in
  Alcotest.(check bool) "no filled cell" false (String.contains text 'a');
  Alcotest.(check bool) "instant marker drawn" true (String.contains text '\'');
  let real = { P.s_task = 1; s_core = 0; s_start = 0; s_finish = 10 } in
  let overlaid = Sim.Gantt.render ~width:20 ~cores:1 ~span:10 [ real; zero ] in
  Alcotest.(check bool) "real task wins the cell" false (String.contains overlaid '\'')

(* Levels of the LZ77 compressor exercised by 164.gzip's two loops. *)
let lz77_fast_does_less_work () =
  let text = Workloads.Textgen.repetitive_text (Simcore.Rng.create 12) ~bytes:20000 ~redundancy:0.6 in
  let fast = Workloads.Lz77.compress ~level:Workloads.Lz77.Fast text in
  let best = Workloads.Lz77.compress ~level:Workloads.Lz77.Best text in
  Alcotest.(check bool) "fast is cheaper" true
    (fast.Workloads.Lz77.work < best.Workloads.Lz77.work);
  Alcotest.(check bool) "best compresses at least as well" true
    (best.Workloads.Lz77.compressed_bits <= fast.Workloads.Lz77.compressed_bits);
  Alcotest.(check string) "both round-trip" text
    (Workloads.Lz77.decompress fast.Workloads.Lz77.tokens);
  Alcotest.(check string) "best round-trips" text
    (Workloads.Lz77.decompress best.Workloads.Lz77.tokens)

(* ------------------------------------------------------------------ *)
(* Performance regression: deep in-queue                               *)

let deep_fifo_linear_time () =
  (* Three cores leave a single B slot, and with a huge queue capacity
     the dispatcher floods its in-queue with every B task up front — the
     queue gets ~80k entries deep.  The in-queue must be a real FIFO:
     the seed's [fifo.(s) <- fifo.(s) @ [ b ]] append made this pass
     quadratic (billions of conses); the deque keeps it linear.  The
     time budget is generous for slow machines but far below what the
     quadratic append costs. *)
  let iters = 40_000 in
  let loop = build_loop (List.init iters (fun _ -> (None, [ 1; 1 ], None))) [] in
  let t0 = Sys.time () in
  let r = P.run_loop (cfg ~cap:100_000 3) loop in
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "span is total B work" (2 * iters) r.P.span;
  Alcotest.(check bool) "queue really got deep (>= 10k entries)" true
    (r.P.in_queue_high_water >= 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "linear-time FIFO (%.2fs, budget 5s)" elapsed)
    true (elapsed < 5.0)

(* ------------------------------------------------------------------ *)
(* Targeted retries: hand-built loops whose outcome hangs on one re-try
   rule, each compared with the reference rescan simulator
   (test/ref_sim.ml), event stream included.  Edges are synchronized and
   given by task id; ids number each iteration's A, Bs and C in order. *)

let loop_with_edges iters edges =
  let l = build_loop iters [] in
  I.make_loop ~name:"l" ~tasks:l.I.tasks
    ~edges:
      (List.map
         (fun (src, dst) -> { I.src; dst; speculated = false; src_offset = 0; dst_offset = 0 })
         edges)

let recorded simulate =
  let rec_ = Obs.Sink.recorder () in
  let outcome =
    match simulate (Obs.Sink.record rec_) with
    | r -> Ok r
    | exception Failure m -> Error m
  in
  (outcome, Obs.Sink.events rec_)

let same_as_reference c loop =
  Alcotest.(check bool) "result and event stream = reference" true
    (recorded (fun obs -> P.run_loop c ~obs loop)
    = recorded (fun obs -> Ref_sim.simulate_loop c ~policy:P.default_policy ~obs loop))

(* At 2 cores A and C share core 0.  C1 waits for time 14 (C0 -> C1)
   when A3 starts at 11 and holds the core until 16, so C must ask for
   a wake at 16 right then, before B2b (started at 12, finishing at 16)
   queues its finish: re-trying C only at 14 would put the Wake after
   B2b's finish in the stream. *)
let a_start_retries_c_on_shared_core () =
  same_as_reference (cfg ~lat:4 2)
    (loop_with_edges
       [
         (None, [ 1 ], Some 1);
         (None, [ 2 ], Some 1);
         (None, [ 1; 4 ], Some 1);
         (Some 5, [ 1 ], Some 1);
       ]
       [ (1, 3); (2, 4); (2, 7) ])

(* The mirror case: A3 waits for time 14 (C0 -> A3) when C1 starts at
   11 and holds core 0 until 15, so A must ask for a wake at 15 before
   B2b (started at 12) queues its finish at 15. *)
let c_start_retries_a_on_shared_core () =
  same_as_reference (cfg ~lat:4 2)
    (loop_with_edges
       [
         (None, [ 1 ], Some 1);
         (None, [ 2 ], Some 4);
         (None, [ 1; 3 ], Some 1);
         (Some 1, [ 1 ], Some 1);
       ]
       [ (2, 4); (1, 7) ])

(* A zero-work C task finishes as it starts, with no finish event; A1
   waits on it and must still be re-tried, or the loop deadlocks. *)
let zero_work_c_retries_consumer () =
  same_as_reference (cfg 3)
    (loop_with_edges [ (None, [ 1 ], Some 0); (Some 1, [ 1 ], Some 1) ] [ (1, 2) ])

(* A simulated task costs about the same at any core count.  Each B
   task depends on the previous iteration's, so the chain runs one task
   at a time while the other 1021 B slots hold queued tasks that wait
   on it.  A simulator that re-tries every B slot after every event pays
   for all of them on each of the loop's 80k events (about 4 s on a
   2-vCPU x86-64 box); re-trying only the actors an event touched takes
   about 0.15 s there. *)
let chain_cost_flat_in_cores () =
  let iters = 40_000 in
  let loop =
    build_loop
      (List.init iters (fun _ -> (None, [ 1 ], Some 1)))
      (List.init (iters - 1) (fun i -> (i, 0, i + 1, 0, false)))
  in
  let t0 = Sys.time () in
  let r = P.run_loop (cfg 1024) ~validate:false loop in
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool) "chain serializes the B tasks" true (r.P.span >= iters);
  Alcotest.(check bool)
    (Printf.sprintf "cost flat in cores (%.2fs, budget 2s)" elapsed)
    true (elapsed < 2.0)

(* The simulator keeps no reference to a loop it has finished: the
   loop's index lives in the loop, and the per-domain scratch holds only
   buffers.  Once nothing else holds a simulated loop, a major collection
   frees it; a table of loops would keep every loop a long session ever
   simulated. *)
let simulator_keeps_no_dead_loop () =
  let slot = Weak.create 1 in
  let[@inline never] simulate_and_drop () =
    let loop = build_loop [ (Some 1, [ 4; 3 ], Some 1); (Some 1, [ 5 ], Some 1) ] [] in
    ignore (Sys.opaque_identity (P.run_loop (cfg 4) loop));
    Weak.set slot 0 (Some loop)
  in
  simulate_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "simulated loop collected" false (Weak.check slot 0)

(* Two domains take the first index of one fresh loop at the same time
   and simulate it.  The index is published without a lock: whichever
   build loses the race is dropped, and both domains read the winner's. *)
let index_shared_across_domains () =
  let loop =
    build_loop
      (List.init 2000 (fun _ -> (Some 1, [ 3; 2 ], Some 1)))
      (List.init 1999 (fun i -> (i, 1, i + 1, 0, i mod 3 = 0)))
  in
  let go = Atomic.make false in
  let take () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let ix = I.index loop in
    (ix, P.run_loop (cfg 4) loop)
  in
  let d1 = Domain.spawn take and d2 = Domain.spawn take in
  Atomic.set go true;
  let ix1, r1 = Domain.join d1 and ix2, r2 = Domain.join d2 in
  Alcotest.(check bool) "same physical index" true (ix1 == ix2 && I.index loop == ix1);
  Alcotest.(check bool) "same loop_result" true (r1 = r2)

let () =
  Alcotest.run "sim"
    [
      ( "schedules",
        [
          Alcotest.test_case "single iteration" `Quick single_iteration_chain;
          Alcotest.test_case "single core" `Quick single_core_is_serial;
          Alcotest.test_case "perfect parallel" `Quick perfect_parallel_b;
          Alcotest.test_case "one B core" `Quick b_tasks_share_one_core;
          Alcotest.test_case "sync chain" `Quick sync_chain_serializes;
          Alcotest.test_case "speculated chain" `Quick speculated_chain_serializes_too;
          Alcotest.test_case "A bottleneck" `Quick a_stage_bottleneck;
          Alcotest.test_case "C bottleneck" `Quick c_stage_bottleneck;
          Alcotest.test_case "queue capacity" `Quick queue_capacity_limits_lookahead;
          Alcotest.test_case "two cores" `Quick two_core_plan_shares_a_and_c;
          Alcotest.test_case "latency" `Quick latency_adds_pipeline_fill;
          Alcotest.test_case "zero iterations" `Quick zero_iteration_loop;
          Alcotest.test_case "misspec counted" `Quick misspec_counted;
          Alcotest.test_case "dynamic assignment" `Quick dynamic_assignment_balances;
        ] );
      ( "policies",
        [
          Alcotest.test_case "squash re-executes" `Quick squash_counts_reexecution;
          Alcotest.test_case "forwarding overlap" `Quick forwarding_enables_overlap;
          Alcotest.test_case "squash charges only elapsed work" `Quick
            squash_charges_only_elapsed;
          Alcotest.test_case "squash re-insert tracks high water" `Quick
            squash_reinsert_tracks_high_water;
        ] );
      ( "retries",
        [
          Alcotest.test_case "A start re-tries C on the shared core" `Quick
            a_start_retries_c_on_shared_core;
          Alcotest.test_case "C start re-tries A on the shared core" `Quick
            c_start_retries_a_on_shared_core;
          Alcotest.test_case "zero-work C re-tries its consumer" `Quick
            zero_work_c_retries_consumer;
        ] );
      ( "properties",
        [
          prop_within_bounds;
          prop_single_core_exact;
          prop_deterministic;
          prop_squash_wastes_work;
          prop_squash_within_bounds;
          prop_forwarding_within_bounds;
          prop_busy_conservation;
          prop_schedule_valid;
          prop_schedule_valid_squash;
        ] );
      ( "speedup",
        [
          Alcotest.test_case "baseline one" `Quick speedup_baseline_one;
          Alcotest.test_case "best min threads" `Quick speedup_best_prefers_min_threads;
          Alcotest.test_case "moore values" `Quick moore_speedup_values;
          Alcotest.test_case "critical path" `Quick analytic_critical_path;
        ] );
      ( "tls-plan",
        [
          Alcotest.test_case "independent iterations" `Quick tls_independent_iterations;
          Alcotest.test_case "chain serializes" `Quick tls_chain_serializes;
          Alcotest.test_case "buffer limit" `Quick tls_buffer_limits_lookahead;
          Alcotest.test_case "single core" `Quick tls_single_core_serial;
          Alcotest.test_case "C after the B tasks" `Quick tls_c_after_b;
          tls_within_bounds;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "renders rows" `Quick gantt_renders_rows;
          Alcotest.test_case "empty" `Quick gantt_empty_schedule;
          Alcotest.test_case "zero-work marker" `Quick gantt_zero_work_marker;
          Alcotest.test_case "lz77 levels" `Quick lz77_fast_does_less_work;
        ] );
      ( "input",
        [
          Alcotest.test_case "merge edges" `Quick input_merges_duplicate_edges;
          Alcotest.test_case "index shared across domains" `Quick index_shared_across_domains;
        ] );
      ( "perf-regression",
        [
          Alcotest.test_case "deep fifo linear time" `Quick deep_fifo_linear_time;
          Alcotest.test_case "chain cost flat in cores" `Quick chain_cost_flat_in_cores;
          Alcotest.test_case "simulator keeps no dead loop" `Quick
            simulator_keeps_no_dead_loop;
        ] );
    ]
