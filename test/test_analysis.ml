(* Tests for lib/obs/analysis: the attribution engine's conservation
   invariants over the full benchmark registry (oracle-style — every
   core's stall segments tile [0, span] so totals sum to span x cores,
   and the critical path's length equals the span), the stall/critpath
   behavior on small hand-built loops. *)

module A = Obs_analysis.Attribution
module T = Obs_analysis.Timeline
module C = Obs_analysis.Critpath

(* ------------------------------------------------------------------ *)
(* Registry sweep: every study's loops on machines from serial to the
   paper's largest, both misspec policies.  Each loop_result and event
   stream must equal the reference simulator's (test/ref_sim.ml); each
   timeline and critical path, and each oracle verdict on the schedule
   and on a copy with its last entry moved onto its first entry's core
   and start, must equal the reference implementations'
   (test/ref_analysis.ml), and both attribution invariants hold. *)

let record cfg ~policy loop =
  let rec_ = Obs.Sink.recorder () in
  let r = Sim.Pipeline.run_loop cfg ~policy ~validate:true ~obs:(Obs.Sink.record rec_) loop in
  (r, Obs.Sink.events rec_)

let record_reference cfg ~policy loop =
  let rec_ = Obs.Sink.recorder () in
  let r = Ref_sim.simulate_loop cfg ~policy ~obs:(Obs.Sink.record rec_) loop in
  (r, Obs.Sink.events rec_)

let move_last_onto_first (r : Sim.Sched.loop_result) =
  match r.Sim.Sched.schedule with
  | [] -> r
  | first :: _ as entries ->
    let last = List.nth entries (List.length entries - 1) in
    let moved =
      {
        last with
        Sim.Sched.s_core = first.Sim.Sched.s_core;
        s_start = first.Sim.Sched.s_start;
        s_finish = first.Sim.Sched.s_start + (last.Sim.Sched.s_finish - last.Sim.Sched.s_start);
      }
    in
    { r with Sim.Sched.schedule = List.map (fun e -> if e == last then moved else e) entries }

let registry_sweep () =
  let policies =
    [
      { Sim.Sched.misspec = Sim.Sched.Serialize; forwarding = false };
      { Sim.Sched.misspec = Sim.Sched.Squash; forwarding = false };
    ]
  in
  List.iter
    (fun (s : Benchmarks.Study.t) ->
      let profile = s.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
      let built = Core.Framework.build ~plan:s.Benchmarks.Study.plan profile in
      List.iter
        (function
          | Sim.Input.Serial _ -> ()
          | Sim.Input.Parallel loop ->
            List.iter
              (fun cores ->
                List.iter
                  (fun policy ->
                    let cfg = Machine.Config.default ~cores in
                    let case = Printf.sprintf "%s cores=%d" loop.Sim.Input.name cores in
                    (* validate:true also runs the schedule oracle. *)
                    let r, events = record cfg ~policy loop in
                    Alcotest.(check bool) (case ^ ": simulation = reference") true
                      ((r, events) = record_reference cfg ~policy loop);
                    Alcotest.(check bool) (case ^ ": timeline = reference") true
                      (T.of_events cfg loop r events
                      = Ref_analysis.Timeline.of_events cfg loop r events);
                    let moved = move_last_onto_first r in
                    Alcotest.(check bool) (case ^ ": exclusivity verdict = reference") true
                      (Ref_analysis.Exclusivity.validate_agrees cfg ~policy loop moved);
                    List.iter
                      (fun x ->
                        Alcotest.(check bool) (case ^ ": oracle verdict = reference") true
                          (Sim.Oracle.validate cfg ~policy loop x
                          = Ref_analysis.Oracle.validate cfg ~policy loop x))
                      [ r; moved ];
                    let a = A.of_events cfg ~policy loop r events in
                    Alcotest.(check bool) (case ^ ": critical path = reference") true
                      (a.A.critpath = Ref_analysis.Critpath.extract cfg ~policy loop r events);
                    (match A.validate a with
                    | Ok () -> ()
                    | Error m ->
                      Alcotest.failf "%s %s cores=%d: %s" s.Benchmarks.Study.spec_name
                        loop.Sim.Input.name cores m);
                    Alcotest.(check int)
                      (case ^ ": stalls sum to span*cores")
                      (a.A.span * cores)
                      (List.fold_left (fun acc c -> acc + T.total a.A.timeline c) 0 T.categories);
                    Alcotest.(check int) (case ^ ": path length = span") a.A.span
                      (C.length a.A.critpath))
                  policies)
              [ 1; 2; 3; 8; 32 ])
        built.Core.Framework.input.Sim.Input.segments)
    Benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Hand-built loops: the taxonomy behaves as designed                   *)

let task id iteration phase work = Ir.Task.make ~id ~iteration ~phase ~work ()

(* A C-bound loop: trivial A and B, heavy C.  The C core should be busy
   nearly the whole span and the diagnosis should name the C stage. *)
let c_bound_diagnosis () =
  let tasks =
    Array.init 12 (fun i ->
        let iter = i / 3 in
        match i mod 3 with
        | 0 -> task i iter Ir.Task.A 1
        | 1 -> task i iter Ir.Task.B 2
        | _ -> task i iter Ir.Task.C 40)
  in
  let loop = Sim.Input.make_loop ~name:"cbound" ~tasks ~edges:[] in
  let a = A.run (Machine.Config.default ~cores:4) loop in
  A.validate_exn a;
  Alcotest.(check string) "binding bound" "C-stage" (A.bound_name a.A.binding);
  let diag = Obs_analysis.Explain.diagnose a in
  Alcotest.(check bool) (Printf.sprintf "diagnosis %S names C-stage" diag) true
    (String.length diag >= 7 && String.sub diag 0 7 = "C-stage")

(* With one core the loop is serial: one busy line, no stalls. *)
let serial_all_busy () =
  let tasks = Array.init 6 (fun i -> task i (i / 3) (if i mod 3 = 0 then Ir.Task.A else Ir.Task.B) 5) in
  let loop = Sim.Input.make_loop ~name:"serial" ~tasks ~edges:[] in
  let a = A.run (Machine.Config.default ~cores:1) loop in
  A.validate_exn a;
  Alcotest.(check int) "span = total work" (Sim.Input.loop_work loop) a.A.span;
  Alcotest.(check int) "core 0 fully busy" a.A.span (T.core_total a.A.timeline.T.cores.(0) T.Busy)

(* Squash policy: wasted work shows up in squash_waste and the path
   still tiles the span. *)
let squash_waste_counted () =
  let tasks =
    Array.init 9 (fun i ->
        let iter = i / 3 in
        match i mod 3 with
        | 0 -> task i iter Ir.Task.A 3
        | 1 -> task i iter Ir.Task.B 20
        | _ -> task i iter Ir.Task.C 2)
  in
  (* Speculated edge between consecutive iterations' B tasks: later Bs
     start early on other cores and get squashed when the producer
     finishes. *)
  let edges =
    [
      { Sim.Input.src = 1; dst = 4; speculated = true; src_offset = 0; dst_offset = 0 };
      { Sim.Input.src = 4; dst = 7; speculated = true; src_offset = 0; dst_offset = 0 };
    ]
  in
  let loop = Sim.Input.make_loop ~name:"squashy" ~tasks ~edges in
  let policy = { Sim.Sched.misspec = Sim.Sched.Squash; forwarding = false } in
  let a = A.run (Machine.Config.default ~cores:8) ~policy ~validate:true loop in
  A.validate_exn a;
  Alcotest.(check bool) "squashes happened" true (a.A.squashes > 0);
  Alcotest.(check bool) "waste accounted" true (a.A.squash_waste > 0)

(* A malformed recording: two runs overlap on core 0 and close out of
   start order.  The timeline sorts each core's intervals and clamps
   them against the cursor, so every core still tiles [0, span], exactly
   as the reference does. *)
let overlapping_recording () =
  let tasks =
    Array.init 6 (fun i -> task i (i / 3) [| Ir.Task.A; Ir.Task.B; Ir.Task.C |].(i mod 3) 4)
  in
  let loop = Sim.Input.make_loop ~name:"overlap" ~tasks ~edges:[] in
  let cfg = Machine.Config.default ~cores:4 in
  let r = Sim.Pipeline.run_loop cfg loop in
  let start time task =
    Obs.Event.Task_start { time; task; core = 0; phase = 'A'; iteration = task / 3; work = 4 }
  in
  let finish time task = Obs.Event.Task_finish { time; task; core = 0 } in
  let events = [ start 0 0; start 2 3; finish 4 3; finish 10 0 ] in
  let t = T.of_events cfg loop r events in
  Alcotest.(check bool) "timeline = reference" true
    (t = Ref_analysis.Timeline.of_events cfg loop r events);
  match T.check t with Ok () -> () | Error m -> Alcotest.failf "tiling broken: %s" m

(* Attribution must stay linear in the recording.  A 40k-iteration loop
   whose B stage is four times slower than A fills the in-queues, so the
   A core alternates between short runs and ~40k producer-blocked gaps
   among 160k queue events.  A timeline that rebuilds the queue step
   functions per gap, or scans the commits from iteration 0 at every gap
   point, is quadratic here (tens of seconds); the budget is generous
   for slow machines but far below that.  The Squash case chains every
   third iteration's B task to the next one's by a speculated edge on
   32 cores: ~68k squashed attempts, and a critical path that falls
   back to "the latest execution ending before" many thousands of
   times.  A fallback that scans every task and attempt per call (the
   reference's) takes 6.4 s for the critical path alone, against
   0.12 s with the time indexes (2-vCPU x86-64 host). *)
let attribution_linear_time () =
  let iters = 40_000 in
  let tasks =
    Array.init (3 * iters) (fun id ->
        let i = id / 3 in
        match id mod 3 with
        | 0 -> task id i Ir.Task.A 1
        | 1 -> task id i Ir.Task.B (7 + (i mod 3))
        | _ -> task id i Ir.Task.C 2)
  in
  let timed cores ?policy loop =
    let t0 = Sys.time () in
    let a = A.run (Machine.Config.default ~cores) ?policy ~validate:true loop in
    A.validate_exn a;
    (a, Sys.time () -. t0)
  in
  let within name elapsed =
    Alcotest.(check bool)
      (Printf.sprintf "linear-time attribution, %s (%.2fs, budget 5s)" name elapsed)
      true (elapsed < 5.0)
  in
  let a, elapsed = timed 4 (Sim.Input.make_loop ~name:"deep" ~tasks ~edges:[]) in
  Alcotest.(check bool) "the A core was producer-blocked" true
    (T.core_total a.A.timeline.T.cores.(0) T.Producer_blocked > a.A.span / 2);
  within "Serialize" elapsed;
  let edges =
    List.init (iters - 1) (fun i ->
        {
          Sim.Input.src = (3 * i) + 1;
          dst = (3 * (i + 1)) + 1;
          speculated = i mod 3 = 0;
          src_offset = 0;
          dst_offset = 0;
        })
  in
  let squash = { Sim.Sched.misspec = Sim.Sched.Squash; forwarding = false } in
  let a, elapsed = timed 32 ~policy:squash (Sim.Input.make_loop ~name:"squashy" ~tasks ~edges) in
  Alcotest.(check bool) "tens of thousands of squashes" true (a.A.squashes > 20_000);
  within "Squash" elapsed

let () =
  Alcotest.run "analysis"
    [
      ( "invariants",
        [
          Alcotest.test_case "registry sweep (both policies)" `Slow registry_sweep;
          Alcotest.test_case "C-bound diagnosis" `Quick c_bound_diagnosis;
          Alcotest.test_case "serial all busy" `Quick serial_all_busy;
          Alcotest.test_case "squash waste counted" `Quick squash_waste_counted;
          Alcotest.test_case "attribution linear time" `Quick attribution_linear_time;
          Alcotest.test_case "overlapping recording" `Quick overlapping_recording;
        ] );
    ]
