(* Tests for Sim.Oracle: every schedule the simulator emits must pass,
   every deliberately corrupted schedule must be rejected with the name
   of the invariant it breaks, and randomized differential properties tie
   the simulator to the analytic bounds. *)

module I = Sim.Input
module P = Sim.Pipeline
module O = Sim.Oracle
module G = Check.Gen
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
      { GI.ld_iters = List.init 3 (fun _ -> (Some 3, [ 5 ], Some 2)); ld_edges = [] }
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
  expect_violation "speculation-accounting" { r with P.misspec_delayed = 99 }

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

(* Exclusivity against the reference check (test/ref_analysis.ml) on
   simulated schedules and mutated copies of them: an entry moved onto
   another's core and start, two entries swapped in the list, an entry
   shifted earlier.  Indices wrap around the schedule. *)
type mutation = Move of int * int | Swap of int * int | Shift of int * int

let mutation =
  let open G in
  let idx = int_bound 1000 in
  oneof
    [
      map2 (fun i j -> Move (i, j)) idx idx;
      map2 (fun i j -> Swap (i, j)) idx idx;
      map2 (fun i d -> Shift (i, d)) idx (int_range 1 20);
    ]

let print_mutation = function
  | Move (i, j) -> Printf.sprintf "move %d onto %d" i j
  | Swap (i, j) -> Printf.sprintf "swap %d %d" i j
  | Shift (i, d) -> Printf.sprintf "shift %d by -%d" i d

let mutate (r : P.loop_result) m =
  let es = Array.of_list r.P.schedule in
  let n = Array.length es in
  (if n > 0 then
     match m with
     | Move (i, j) ->
       let e = es.(i mod n) and d = es.(j mod n) in
       es.(i mod n) <-
         {
           e with
           P.s_core = d.P.s_core;
           s_start = d.P.s_start;
           s_finish = d.P.s_start + (e.P.s_finish - e.P.s_start);
         }
     | Swap (i, j) ->
       let e = es.(i mod n) in
       es.(i mod n) <- es.(j mod n);
       es.(j mod n) <- e
     | Shift (i, d) ->
       let e = es.(i mod n) in
       let d = min d e.P.s_start in
       es.(i mod n) <- { e with P.s_start = e.P.s_start - d; s_finish = e.P.s_finish - d });
  { r with P.schedule = Array.to_list es }

let prop_exclusivity_matches_reference () =
  let overlaps = ref 0 in
  R.run_prop_exn
    ~print:(fun (sc, ms) ->
      print_scenario sc ^ "\nmutations: " ^ String.concat ", " (List.map print_mutation ms))
    ~name:"oracle: exclusivity verdicts match the reference"
    (G.pair scenario (G.list_size (G.int_bound 3) mutation))
    (fun ((d, cores, lat, policy), ms) ->
      let loop = GI.build_loop d in
      let c = cfg ~lat cores in
      let r = List.fold_left mutate (P.run_loop c ~policy ~validate:false loop) ms in
      (match O.validate c ~policy loop r with
      | Error { O.invariant = "core-exclusivity"; _ } -> incr overlaps
      | _ -> ());
      Ref_analysis.Oracle.validate_agrees c ~policy loop r);
  Alcotest.(check bool) "some mutated schedules overlap" true (!overlaps > 0)

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
        ] );
    ]
