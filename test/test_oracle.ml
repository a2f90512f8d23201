(* Tests for Sim.Oracle: every schedule the simulator emits must pass,
   every deliberately corrupted schedule must be rejected with the name
   of the invariant it breaks, and randomized differential properties tie
   the simulator to the analytic bounds. *)

module I = Sim.Input
module P = Sim.Pipeline
module O = Sim.Oracle
module G = QCheck2.Gen
module R = Check.Runner
module GI = Check.Gen_ir

(* Everything in this binary validates by default: each P.run_loop call
   below re-checks its own schedule through the oracle. *)
let () = P.validate_default := true

let cfg ?(lat = 0) ?(cap = 32) cores =
  Machine.Config.make ~cores ~queue_capacity:cap ~comm_latency:lat ()

(* ------------------------------------------------------------------ *)
(* Acceptance: the oracle accepts every real schedule                  *)

let registry_sweep_accepted () =
  (* Full 11-benchmark sweep at the paper's 1..32 thread counts; with
     [validate_default] on, any invariant violation raises here. *)
  List.iter
    (fun study ->
      let e = Core.Experiment.run ~scale:Benchmarks.Study.Small study in
      Alcotest.(check bool)
        (Printf.sprintf "%s sweep has all points" study.Benchmarks.Study.spec_name)
        true
        (List.length e.Core.Experiment.series.Sim.Speedup.points
        = List.length Sim.Speedup.paper_thread_counts))
    Benchmarks.Registry.all

let policies_and_latencies_accepted () =
  let loop =
    GI.build_loop
      {
        GI.ld_iters =
          [ (Some 3, [ 5; 4 ], Some 2); (Some 3, [ 6; 1 ], Some 2); (Some 3, [ 2; 7 ], Some 2) ];
        ld_edges = [ (0, 0, 1, 0, false, 0, 0); (1, 1, 2, 0, true, 0, 0) ];
        ld_intra = [];
      }
  in
  List.iter
    (fun misspec ->
      List.iter
        (fun forwarding ->
          List.iter
            (fun lat ->
              List.iter
                (fun cores ->
                  ignore
                    (P.run_loop (cfg ~lat cores) ~policy:{ P.misspec; forwarding }
                       ~validate:true loop))
                [ 1; 2; 3; 4; 8; 32 ])
            [ 0; 1; 3 ])
        [ false; true ])
    [ P.Serialize; P.Squash ]

(* ------------------------------------------------------------------ *)
(* Rejection: corrupted schedules name their broken invariant          *)

(* Two iterations, one B task each, an explicit synchronized edge
   B(0,0) -> B(1,0); task ids are A0=0 B0=1 C0=2 A1=3 B1=4 C1=5. *)
let victim_loop =
  GI.build_loop
    {
      GI.ld_iters = [ (Some 3, [ 5 ], Some 2); (Some 3, [ 5 ], Some 2) ];
      ld_edges = [ (0, 0, 1, 0, false, 0, 0) ];
      ld_intra = [];
    }

let victim_cfg = cfg ~lat:2 4

let victim_result () = P.run_loop victim_cfg ~validate:true victim_loop

let entry r task =
  List.find (fun (e : P.sched_entry) -> e.P.s_task = task) r.P.schedule

let with_entry r task f =
  {
    r with
    P.schedule =
      List.map (fun (e : P.sched_entry) -> if e.P.s_task = task then f e else e) r.P.schedule;
  }

let expect_violation name r =
  match O.validate victim_cfg victim_loop r with
  | Ok () -> Alcotest.failf "corrupted schedule accepted (wanted %s)" name
  | Error v -> Alcotest.(check string) "violated invariant" name v.O.invariant

let reject_overlap () =
  (* Slide iteration 1's A task on top of iteration 0's: same core. *)
  let r = victim_result () in
  let a0 = entry r 0 in
  expect_violation "core-exclusivity"
    (with_entry r 3 (fun e ->
         { e with P.s_start = a0.P.s_start; s_finish = a0.P.s_start + 3 }))

let reject_overlap_out_of_order () =
  (* Slide iteration 2's A task onto iteration 0's, then list the
     schedule newest first.  On the A core the overlapping pair, tasks 0
     and 6, is not adjacent in that listing (task 3 sits between them),
     so only a check that orders each core's entries by start finds it;
     the reversed legal schedule must still pass. *)
  let loop =
    GI.build_loop
      {
        GI.ld_iters = List.init 3 (fun _ -> (Some 3, [ 5 ], Some 2));
        ld_edges = [];
        ld_intra = [];
      }
  in
  let r = P.run_loop victim_cfg ~validate:true loop in
  let reversed r = { r with P.schedule = List.rev r.P.schedule } in
  (match O.validate victim_cfg loop (reversed r) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "reversed legal schedule rejected: %a" O.pp_violation v);
  let a0 = entry r 0 in
  let bad =
    with_entry r 6 (fun e -> { e with P.s_start = a0.P.s_start; s_finish = a0.P.s_finish })
  in
  match O.validate victim_cfg loop (reversed bad) with
  | Ok () -> Alcotest.fail "out-of-order overlap accepted"
  | Error v ->
    Alcotest.(check string) "violated invariant" "core-exclusivity" v.O.invariant;
    Alcotest.(check string) "reported pair"
      (Printf.sprintf "tasks 0 and 6 overlap on core %d (finish %d > start %d)" a0.P.s_core
         a0.P.s_finish a0.P.s_start)
      v.O.detail

let reject_dropped_edge_delay () =
  (* Start the consumer B(1,0) one tick before its producer's finish plus
     the communication latency — the classic dropped-synchronization bug
     the oracle exists to catch. *)
  let r = victim_result () in
  let producer = entry r 1 in
  let early = producer.P.s_finish + 2 - 1 in
  expect_violation "dependence-ordering"
    (with_entry r 4 (fun e -> { e with P.s_start = early; s_finish = early + 5 }))

let reject_phantom_squash () =
  let r = victim_result () in
  expect_violation "speculation-accounting" { r with P.squashes = 1 }

let reject_inflated_misspec () =
  let r = victim_result () in
  expect_violation "speculation-accounting" { r with P.misspec_delayed = 99 };
  (* The victim has no speculated edge, so even one delay is unexplained. *)
  expect_violation "speculation-accounting" { r with P.misspec_delayed = 1 }

let reject_queue_overflow () =
  let r = victim_result () in
  expect_violation "queue-bounds"
    { r with P.in_queue_high_water = victim_cfg.Machine.Config.queue_capacity + 1 }

let reject_busy_mismatch () =
  let r = victim_result () in
  let busy = Array.copy r.P.busy in
  busy.(1) <- busy.(1) + 1;
  expect_violation "busy-conservation" { r with P.busy }

let reject_missing_task () =
  let r = victim_result () in
  expect_violation "schedule-coverage" { r with P.schedule = List.tl r.P.schedule }

let reject_wrong_span () =
  let r = victim_result () in
  expect_violation "schedule-coverage" { r with P.span = r.P.span + 1 }

let validate_exn_names_invariant () =
  let r = victim_result () in
  let bad = { r with P.squashes = 1 } in
  match O.validate_exn victim_cfg victim_loop bad with
  | () -> Alcotest.fail "validate_exn accepted a corrupted schedule"
  | exception Failure msg ->
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the invariant" true (contains "speculation-accounting")

(* ------------------------------------------------------------------ *)
(* Differential properties over random plans                           *)

(* (loop descriptor, cores, latency, policy) with a fixed 32-entry queue
   so the analytic upper bound applies. *)
let scenario =
  let open G in
  let* d = GI.loop_desc ~max_iters:8 () in
  let* cores = int_range ~origin:1 1 32 in
  let* lat = int_range 0 5 in
  let* policy = GI.policy in
  return (d, cores, lat, policy)

let print_scenario (d, cores, lat, (p : P.policy)) =
  Format.asprintf "cores=%d lat=%d misspec=%s fwd=%b@ %a" cores lat
    (match p.P.misspec with P.Serialize -> "serialize" | P.Squash -> "squash")
    p.P.forwarding GI.pp_loop_desc d

let prop_span_bounds () =
  R.run_prop_exn ~print:print_scenario ~name:"oracle: span within analytic bounds" scenario
    (fun (d, cores, lat, policy) ->
      let loop = GI.build_loop d in
      let c = cfg ~lat cores in
      let r = P.run_loop c ~policy ~validate:true loop in
      if cores <= 1 then r.P.span = I.loop_work loop
      else if policy.P.forwarding then
        (* Forwarding can beat the task-level critical path but never the
           per-stage work bottlenecks. *)
        let wa, wb, wc = Sim.Analytic.phase_work loop in
        let b = Dswp.Planner.b_core_count c in
        r.P.span >= wa && r.P.span >= wc && r.P.span >= (wb + b - 1) / b
      else r.P.span >= Sim.Analytic.lower_bound c loop)

let prop_serial_never_beaten_upper () =
  R.run_prop_exn ~print:print_scenario ~name:"oracle: zero-latency serialize within upper bound"
    scenario (fun (d, cores, _, _) ->
      let loop = GI.build_loop d in
      let c = cfg ~lat:0 cores in
      let r = P.run_loop c ~validate:true loop in
      r.P.span <= Sim.Analytic.upper_bound loop)

let prop_busy_within_span () =
  (* Busy charges only time a core actually spent occupied — an aborted
     squash run counts its elapsed portion, not its full work — so no
     core's busy can exceed the loop span under either policy.  (The
     scenario generator draws both Serialize and Squash.) *)
  R.run_prop_exn ~print:print_scenario ~name:"oracle: per-core busy never exceeds span"
    scenario (fun (d, cores, lat, policy) ->
      let loop = GI.build_loop d in
      let r = P.run_loop (cfg ~lat cores) ~policy ~validate:true loop in
      Array.for_all (fun b -> b <= r.P.span) r.P.busy)

let prop_random_plans_validate () =
  (* The oracle accepts every schedule of every random plan under every
     policy — the randomized counterpart of the registry acceptance. *)
  R.run_prop_exn ~print:print_scenario ~name:"oracle: random schedules accepted" scenario
    (fun (d, cores, lat, policy) ->
      let loop = GI.build_loop d in
      match O.validate (cfg ~lat cores) ~policy loop
              (P.run_loop (cfg ~lat cores) ~policy ~validate:false loop)
      with
      | Ok () -> true
      | Error _ -> false)

(* Verdicts against the reference checks (test/ref_analysis.ml) on
   simulated schedules and mutated copies of them.  Indices wrap around
   the schedule (or the C entries, or the cores).  Each mutation aims at
   one invariant, though an earlier check may fire first:
   - an entry moved onto another's core and start, two entries swapped
     in the list, an entry shifted earlier (core-exclusivity);
   - an entry dropped or listed twice, the span changed
     (schedule-coverage);
   - a consumer started one tick before the latest, or the earliest,
     structural or synchronized in-edge allows, two C tasks' starts
     swapped (dependence-ordering);
   - [squashes] set, [misspec_delayed] set negative or past every task
     start (speculation-accounting);
   - a high-water mark raised past its bound, a B core's task count
     changed (queue-bounds);
   - a core's busy time changed (busy-conservation);
   - a C task committed after the next one: it starts when the next
     one finishes and, with negative work in a copy of the loop, still
     finishes where it did, so the C chain holds (commit-order, which
     the chain implies for any loop of non-negative work). *)
type mutation =
  | Move of int * int
  | Swap of int * int
  | Shift of int * int
  | Drop of int
  | Dup of int
  | Span of int
  | Early of int
  | Earliest of int
  | Swap_c of int * int
  | Squashes of int
  | Misspec of int
  | In_high of int
  | Out_high of int
  | B_tasks of int * int
  | Busy of int * int
  | Commit_late of int

let idx = G.int_bound 1000

(* The layout mutations alone, as the exclusivity property draws them. *)
let layout_mutation =
  let open G in
  oneof
    [
      map2 (fun i j -> Move (i, j)) idx idx;
      map2 (fun i j -> Swap (i, j)) idx idx;
      map2 (fun i d -> Shift (i, d)) idx (int_range 1 20);
    ]

let mutation =
  let open G in
  let delta = oneof [ int_range (-3) (-1); int_range 1 3 ] in
  (* Any mutation pre-empts those aiming at later invariants in the same
     case; the weights keep every invariant reached at 100 cases. *)
  frequency
    [
      (2, map2 (fun i j -> Move (i, j)) idx idx);
      (1, map2 (fun i j -> Swap (i, j)) idx idx);
      (1, map2 (fun i d -> Shift (i, d)) idx (int_range 1 20));
      (1, map (fun i -> Drop i) idx);
      (1, map (fun i -> Dup i) idx);
      (1, map (fun d -> Span d) delta);
      (2, map (fun i -> Early i) idx);
      (1, map (fun i -> Earliest i) idx);
      (1, map2 (fun i j -> Swap_c (i, j)) idx idx);
      (2, map (fun k -> Squashes k) (int_range (-1) 3));
      (1, map (fun d -> Misspec d) (int_range (-1) 3));
      (1, map (fun d -> In_high d) (int_range 1 3));
      (1, map (fun d -> Out_high d) (int_range 1 3));
      (1, map2 (fun c d -> B_tasks (c, d)) idx delta);
      (2, map2 (fun c d -> Busy (c, d)) idx delta);
      (3, map (fun i -> Commit_late i) idx);
    ]

let print_mutation = function
  | Move (i, j) -> Printf.sprintf "move %d onto %d" i j
  | Swap (i, j) -> Printf.sprintf "swap %d %d" i j
  | Shift (i, d) -> Printf.sprintf "shift %d by -%d" i d
  | Drop i -> Printf.sprintf "drop %d" i
  | Dup i -> Printf.sprintf "dup %d" i
  | Span d -> Printf.sprintf "span %+d" d
  | Early i -> Printf.sprintf "early %d" i
  | Earliest i -> Printf.sprintf "earliest %d" i
  | Swap_c (i, j) -> Printf.sprintf "swap C starts %d %d" i j
  | Squashes k -> Printf.sprintf "squashes := %d" k
  | Misspec d -> Printf.sprintf "misspec_delayed past the starts by %d" d
  | In_high d -> Printf.sprintf "in high water past the bound by %d" d
  | Out_high d -> Printf.sprintf "out high water past the bound by %d" d
  | B_tasks (c, d) -> Printf.sprintf "b_tasks_per_core %d %+d" c d
  | Busy (c, d) -> Printf.sprintf "busy %d %+d" c d
  | Commit_late i -> Printf.sprintf "commit C %d late" i

(* The starts the structural and synchronized in-edges of task [tid]
   require under the schedule (entries found by task id with [at]). *)
let requirements (c : Machine.Config.t) (policy : P.policy) (loop : I.loop) at tid =
  let lat = c.Machine.Config.comm_latency in
  let t = loop.I.tasks.(tid) in
  let producers phase =
    Array.to_list loop.I.tasks
    |> List.filter_map (fun (u : Ir.Task.t) ->
           if u.Ir.Task.iteration = t.Ir.Task.iteration && u.Ir.Task.phase = phase then
             Option.map (fun (e : P.sched_entry) -> e.P.s_finish + lat) (at u.Ir.Task.id)
           else None)
  in
  let structural =
    match t.Ir.Task.phase with
    | Ir.Task.A -> []
    | Ir.Task.B -> producers Ir.Task.A
    | Ir.Task.C -> producers Ir.Task.B
  in
  structural
  @ List.filter_map
      (fun (e : I.edge) ->
        if e.I.dst <> tid || e.I.speculated then None
        else
          Option.map
            (fun (p : P.sched_entry) ->
              if policy.P.forwarding then
                max 0 (p.P.s_start + e.I.src_offset + lat - e.I.dst_offset)
              else p.P.s_finish + lat)
            (at e.I.src))
      loop.I.edges

let mutate c policy ((loop : I.loop), (r : P.loop_result)) m =
  let es = Array.of_list r.P.schedule in
  let n = Array.length es in
  let at tid = Array.find_opt (fun (e : P.sched_entry) -> e.P.s_task = tid) es in
  let c_entries () =
    List.filter
      (fun (e : P.sched_entry) -> loop.I.tasks.(e.P.s_task).Ir.Task.phase = Ir.Task.C)
      r.P.schedule
    |> List.sort (fun (a : P.sched_entry) b -> compare a.P.s_task b.P.s_task)
    |> Array.of_list
  in
  let set_entry (e : P.sched_entry) =
    {
      r with
      P.schedule =
        List.map
          (fun (x : P.sched_entry) -> if x.P.s_task = e.P.s_task then e else x)
          r.P.schedule;
    }
  in
  let bump a i d =
    let a = Array.copy a in
    if Array.length a > 0 then a.(i mod Array.length a) <- a.(i mod Array.length a) + d;
    a
  in
  if n = 0 then (loop, r)
  else
    match m with
    | Move (i, j) ->
      let e = es.(i mod n) and d = es.(j mod n) in
      es.(i mod n) <-
        {
          e with
          P.s_core = d.P.s_core;
          s_start = d.P.s_start;
          s_finish = d.P.s_start + (e.P.s_finish - e.P.s_start);
        };
      (loop, { r with P.schedule = Array.to_list es })
    | Swap (i, j) ->
      let e = es.(i mod n) in
      es.(i mod n) <- es.(j mod n);
      es.(j mod n) <- e;
      (loop, { r with P.schedule = Array.to_list es })
    | Shift (i, d) ->
      let e = es.(i mod n) in
      let d = min d e.P.s_start in
      es.(i mod n) <- { e with P.s_start = e.P.s_start - d; s_finish = e.P.s_finish - d };
      (loop, { r with P.schedule = Array.to_list es })
    | Drop i -> (loop, { r with P.schedule = List.filteri (fun k _ -> k <> i mod n) r.P.schedule })
    | Dup i -> (loop, { r with P.schedule = es.(i mod n) :: r.P.schedule })
    | Span d -> (loop, { r with P.span = r.P.span + d })
    | Early i | Earliest i -> (
      (* The first entry from [i] on whose task some edge gates, started
         one tick before the latest (Early) or the earliest (Earliest,
         so that every gating edge may be violated at once) of its
         requirements. *)
      let pick = match m with Early _ -> List.fold_left max 0 | _ -> List.fold_left min max_int in
      let gated k =
        let e = es.((i + k) mod n) in
        let tid = e.P.s_task in
        if tid < 0 || tid >= Array.length loop.I.tasks then None
        else
          match requirements c policy loop at tid with
          | [] -> None
          | reqs ->
            let req = pick reqs in
            if req > 0 then Some (e, req) else None
      in
      match List.find_map gated (List.init n Fun.id) with
      | None -> (loop, r)
      | Some (e, req) ->
        let s = req - 1 in
        (loop, set_entry { e with P.s_start = s; s_finish = s + (e.P.s_finish - e.P.s_start) }))
    | Swap_c (i, j) ->
      let cs = c_entries () in
      let k = Array.length cs in
      if k < 2 then (loop, r)
      else
        let x = cs.(i mod k) and y = cs.(j mod k) in
        let moved (e : P.sched_entry) s =
          { e with P.s_start = s; s_finish = s + (e.P.s_finish - e.P.s_start) }
        in
        let x' = moved x y.P.s_start and y' = moved y x.P.s_start in
        ( loop,
          {
            r with
            P.schedule =
              List.map
                (fun (e : P.sched_entry) ->
                  if e.P.s_task = x.P.s_task then x' else if e.P.s_task = y.P.s_task then y' else e)
                r.P.schedule;
          } )
    | Squashes k -> (loop, { r with P.squashes = k })
    | Misspec d ->
      (* Negative, or past every task start. *)
      let starts = Array.length loop.I.tasks + abs r.P.squashes in
      (loop, { r with P.misspec_delayed = (if d < 0 then d else starts + d) })
    | In_high d ->
      let cap = c.Machine.Config.queue_capacity + max 0 r.P.squashes in
      (loop, { r with P.in_queue_high_water = cap + d })
    | Out_high d -> (loop, { r with P.out_queue_high_water = c.Machine.Config.queue_capacity + d })
    | B_tasks (i, d) -> (loop, { r with P.b_tasks_per_core = bump r.P.b_tasks_per_core i d })
    | Busy (i, d) -> (loop, { r with P.busy = bump r.P.busy i d })
    | Commit_late i ->
      let cs = c_entries () in
      let k = Array.length cs in
      if k < 2 then (loop, r)
      else
        let j = i mod (k - 1) in
        let p = cs.(j) and q = cs.(j + 1) in
        let tid = p.P.s_task in
        if tid >= Array.length loop.I.tasks || p.P.s_core < 0 || p.P.s_core >= Array.length r.P.busy
        then (loop, r)
        else begin
          let tasks = Array.copy loop.I.tasks in
          tasks.(tid) <- { tasks.(tid) with Ir.Task.work = p.P.s_finish - q.P.s_finish };
          let r = set_entry { p with P.s_start = q.P.s_finish } in
          ( I.make_loop ~name:loop.I.name ~tasks ~edges:loop.I.edges,
            { r with P.busy = bump r.P.busy p.P.s_core (p.P.s_start - q.P.s_finish) } )
        end

let print_case (sc, ms) =
  print_scenario sc ^ "\nmutations: " ^ String.concat ", " (List.map print_mutation ms)

(* Up to three layout mutations per case for the exclusivity property;
   for the verdict property mostly one mutation of any kind, so a later
   invariant is not always pre-empted by an earlier one. *)
let layout_case = G.pair scenario (G.list_size (G.int_bound 3) layout_mutation)

let mutated_case =
  G.pair scenario (G.list_size (G.frequency [ (3, G.return 1); (1, G.int_bound 3) ]) mutation)

let run_mutated ((d, cores, lat, policy), ms) =
  let loop = GI.build_loop d in
  let c = cfg ~lat cores in
  let loop, r =
    List.fold_left (mutate c policy) (loop, P.run_loop c ~policy ~validate:false loop) ms
  in
  (c, policy, loop, r)

let prop_exclusivity_matches_reference () =
  let overlaps = ref 0 in
  R.run_prop_exn ~print:print_case ~name:"oracle: exclusivity verdicts match the reference"
    layout_case (fun case ->
      let c, policy, loop, r = run_mutated case in
      (match O.validate c ~policy loop r with
      | Error { O.invariant = "core-exclusivity"; _ } -> incr overlaps
      | _ -> ());
      Ref_analysis.Exclusivity.validate_agrees c ~policy loop r);
  Alcotest.(check bool) "some mutated schedules overlap" true (!overlaps > 0)

(* The whole verdict, [Ok] or the first violation's invariant and
   detail, equals the verbatim pre-rewrite oracle's, and the mutations
   reach every invariant. *)
let prop_verdict_matches_reference () =
  let reached = Hashtbl.create 8 in
  R.run_prop_exn ~print:print_case ~name:"oracle: verdicts match the reference" mutated_case
    (fun case ->
      let c, policy, loop, r = run_mutated case in
      let v = O.validate c ~policy loop r in
      (match v with Error { O.invariant; _ } -> Hashtbl.replace reached invariant () | Ok () -> ());
      v = Ref_analysis.Oracle.validate c ~policy loop r);
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " reached") true (Hashtbl.mem reached name))
    O.invariant_names

let () =
  Alcotest.run "oracle"
    [
      ( "acceptance",
        [
          Alcotest.test_case "registry sweep validates at 1..32 cores" `Slow
            registry_sweep_accepted;
          Alcotest.test_case "policies and latencies accepted" `Quick
            policies_and_latencies_accepted;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "injected core overlap" `Quick reject_overlap;
          Alcotest.test_case "reject_overlap_out_of_order" `Quick reject_overlap_out_of_order;
          Alcotest.test_case "dropped edge delay" `Quick reject_dropped_edge_delay;
          Alcotest.test_case "phantom squash count" `Quick reject_phantom_squash;
          Alcotest.test_case "inflated misspec count" `Quick reject_inflated_misspec;
          Alcotest.test_case "queue high-water overflow" `Quick reject_queue_overflow;
          Alcotest.test_case "busy mismatch" `Quick reject_busy_mismatch;
          Alcotest.test_case "missing task" `Quick reject_missing_task;
          Alcotest.test_case "wrong span" `Quick reject_wrong_span;
          Alcotest.test_case "validate_exn names the invariant" `Quick
            validate_exn_names_invariant;
        ] );
      ( "differential",
        [
          Alcotest.test_case "span within analytic bounds" `Quick prop_span_bounds;
          Alcotest.test_case "zero-latency within upper bound" `Quick
            prop_serial_never_beaten_upper;
          Alcotest.test_case "per-core busy within span" `Quick prop_busy_within_span;
          Alcotest.test_case "random schedules accepted" `Quick prop_random_plans_validate;
          Alcotest.test_case "exclusivity matches reference" `Quick
            prop_exclusivity_matches_reference;
          Alcotest.test_case "verdict matches reference" `Quick prop_verdict_matches_reference;
        ] );
    ]
