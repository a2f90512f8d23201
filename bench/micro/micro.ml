(* Bechamel micro-benchmarks of the primitives under the profiled studies,
   the simulator and its event heap, the partitioner, the profiler, the
   dependence build, the static dependence analysis, the schedule
   analysis and the real runtime's queue and probe: one kernel call per
   run, reported in ns/run.  Use it for a before/after of a single
   primitive; the end-to-end benchmark is bench/perf.

     dune exec bench/micro/micro.exe            # every test
     dune exec bench/micro/micro.exe -- lz77    # tests whose name contains "lz77" *)

open Bechamel
open Toolkit

(* Inputs like the studies' own: 164.gzip compresses 8 KiB blocks of
   repetitive text, 256.bzip2 sorts 4 KiB blocks of plain text, 186.crafty
   searches replies at depth 3. *)
let gzip_block =
  String.sub
    (Workloads.Textgen.repetitive_text (Simcore.Rng.create 164) ~bytes:8192 ~redundancy:0.4)
    0 8192

let bzip2_block =
  String.sub (Workloads.Textgen.text (Simcore.Rng.create 256) ~bytes:4096) 0 4096

let crafty_position =
  List.hd (Workloads.Alphabeta.moves (Workloads.Alphabeta.root ~seed:186_000))

(* The 164.gzip input at Small scale. *)
let gzip_input =
  lazy
    (let gzip = Benchmarks.B164_gzip.study in
     let profile = gzip.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
     (Core.Framework.build ~plan:gzip.Benchmarks.Study.plan profile).Core.Framework.input)

(* Its loop, simulated on 8 cores.  A loop keeps its index
   (Sim.Input.index) once built, so the loop itself is a warm run and a
   loop rebuilt through Sim.Input.make_loop a cold one; the difference
   between the two tests is the rebuild and the index build. *)
let gzip_loop =
  lazy
    (List.find_map
       (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
       (Lazy.force gzip_input).Sim.Input.segments
     |> Option.get)

let sim_cfg = Machine.Config.default ~cores:8

(* The 300.twolf loop at Large scale (9000 tasks). *)
let twolf_loop =
  lazy
    (let twolf = Benchmarks.B300_twolf.study in
     let profile = twolf.Benchmarks.Study.run ~scale:Benchmarks.Study.Large in
     let built = Core.Framework.build ~plan:twolf.Benchmarks.Study.plan profile in
     List.find_map
       (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
       built.Core.Framework.input.Sim.Input.segments
     |> Option.get)

(* That loop simulated at the study's thread count with its events
   recorded: the input of one attribution timeline and one oracle
   pass. *)
let twolf_run =
  lazy
    (let loop = Lazy.force twolf_loop in
     let threads = Benchmarks.B300_twolf.study.Benchmarks.Study.paper_threads in
     let cfg = Machine.Config.default ~cores:threads in
     let recorder = Obs.Sink.recorder () in
     let r =
       Sim.Pipeline.run_loop cfg ~validate:false ~obs:(Obs.Sink.record recorder) loop
     in
     (cfg, loop, r, Obs.Sink.events recorder))

(* A 175.vpr Large profile: the input of one dependence build (memory
   profile, resolution against the plan, edge merge), profiled once
   outside the timed closure. *)
let vpr_profile =
  lazy (Benchmarks.B175_vpr.study.Benchmarks.Study.run ~scale:Benchmarks.Study.Large)

(* Its parallel loops, each rebuilt through make_loop per run for
   input/*-vpr-large: the rebuild alone, and the rebuild plus the first
   Sim.Input.index, whose difference is the index build. *)
let vpr_loops =
  lazy
    (let vpr = Benchmarks.B175_vpr.study in
     let built =
       Core.Framework.build ~plan:vpr.Benchmarks.Study.plan (Lazy.force vpr_profile)
     in
     List.filter_map
       (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
       built.Core.Framework.input.Sim.Input.segments)

let rebuild (l : Sim.Input.loop) =
  Sim.Input.make_loop ~name:l.Sim.Input.name ~tasks:l.Sim.Input.tasks ~edges:l.Sim.Input.edges

let simulate loop = ignore (Sim.Pipeline.run_loop sim_cfg ~validate:false loop)

(* The twolf loop, untraced, at a small and at the largest sweep point:
   a simulated task should cost about the same at both. *)
let simulate_twolf cores =
  let cfg = Machine.Config.default ~cores in
  Staged.stage (fun () ->
      Sim.Pipeline.run_loop cfg ~validate:false (Lazy.force twolf_loop))

(* One event heap's worth of traffic: 1024 adds at scattered times, then
   1024 pops, as the simulator's event and wake-request heaps see it. *)
let iheap = Simcore.Iheap.create ()

let iheap_add_pop () =
  Simcore.Iheap.clear iheap;
  for i = 0 to 1023 do
    Simcore.Iheap.add iheap ~prio:(i * 7919 land 4095) i 0
  done;
  while Simcore.Iheap.pop iheap do
    ()
  done

(* One hand-off through the real runtime's queue, both ends on this
   domain: a push then the pop of the same cell. *)
let spsc = Runtime.Spsc.create ~capacity:64 ()

let spsc_push_pop () =
  Runtime.Spsc.push spsc 1;
  ignore (Runtime.Spsc.pop spsc)

let probe = Obs.Probe.create ~domain:0 ()

let probe_tick = ref 0

let probe_record () =
  incr probe_tick;
  Obs.Probe.record probe ~kind:1 ~time:!probe_tick ~a:2 ~b:3

(* Flow.Analyze on each study's loop-body IR, under the study's
   Commutative annotations. *)
let flow_tests =
  List.filter_map
    (fun (s : Benchmarks.Study.t) ->
      Option.map
        (fun body ->
          let commutative = s.Benchmarks.Study.plan.Speculation.Spec_plan.commutative in
          Test.make
            ~name:
              ("flow/analyze-" ^ String.map (function ' ' -> '-' | c -> c) body.Flow.Body.b_name)
            (Staged.stage (fun () -> Flow.Analyze.run ~commutative body)))
        s.Benchmarks.Study.flow_body)
    Benchmarks.Registry.all

let tests =
  let open Workloads in
  [
    Test.make ~name:"lz77/fast-8k"
      (Staged.stage (fun () -> Lz77.compress ~level:Lz77.Fast gzip_block));
    Test.make ~name:"lz77/best-8k"
      (Staged.stage (fun () -> Lz77.compress ~level:Lz77.Best gzip_block));
    Test.make ~name:"bwt/transform_with_work-4k"
      (Staged.stage (fun () -> Bwt.transform_with_work bzip2_block));
    Test.make ~name:"alphabeta/search-depth3"
      (Staged.stage (fun () -> Alphabeta.search ~depth:3 crafty_position));
    Test.make ~name:"sim/gzip-loop-cold-static"
      (Staged.stage (fun () -> simulate (rebuild (Lazy.force gzip_loop))));
    Test.make ~name:"sim/gzip-loop-warm-static"
      (Staged.stage (fun () -> simulate (Lazy.force gzip_loop)));
    Test.make ~name:"sim/twolf-loop-4-cores" (simulate_twolf 4);
    Test.make ~name:"sim/twolf-loop-32-cores" (simulate_twolf 32);
    (* The whole 164.gzip input, serial segments included, on 32 cores. *)
    Test.make ~name:"sim/gzip-input-32-cores"
      (Staged.stage (fun () ->
           Sim.Pipeline.run (Machine.Config.default ~cores:32) (Lazy.force gzip_input)));
    Test.make ~name:"simcore/iheap-add-pop" (Staged.stage iheap_add_pop);
    Test.make ~name:"dswp-partition/all-pdgs"
      (Staged.stage (fun () ->
           List.iter
             (fun (s : Benchmarks.Study.t) ->
               ignore
                 (Dswp.Partition.partition (s.Benchmarks.Study.pdg ())
                    ~enabled:(Core.Framework.enabled_breakers s.Benchmarks.Study.plan)))
             Benchmarks.Registry.all));
    Test.make ~name:"profile+resolve/bzip2-small"
      (Staged.stage (fun () ->
           let bzip2 = Benchmarks.B256_bzip2.study in
           let p = bzip2.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
           Core.Framework.build ~plan:bzip2.Benchmarks.Study.plan p));
    Test.make ~name:"analysis/timeline-twolf"
      (Staged.stage (fun () ->
           let cfg, loop, r, events = Lazy.force twolf_run in
           Obs_analysis.Timeline.of_events cfg loop r events));
    Test.make ~name:"oracle/validate-twolf"
      (Staged.stage (fun () ->
           let cfg, loop, r, _ = Lazy.force twolf_run in
           Sim.Oracle.validate cfg loop r));
    Test.make ~name:"critpath/twolf-8-cores"
      (Staged.stage (fun () ->
           let cfg, loop, r, events = Lazy.force twolf_run in
           Obs_analysis.Critpath.extract cfg loop r events));
    Test.make ~name:"build/vpr-large"
      (Staged.stage (fun () ->
           Core.Framework.build ~plan:Benchmarks.B175_vpr.study.Benchmarks.Study.plan
             (Lazy.force vpr_profile)));
    Test.make ~name:"input/make-loop-vpr-large"
      (Staged.stage (fun () -> List.map rebuild (Lazy.force vpr_loops)));
    Test.make ~name:"input/index-vpr-large"
      (Staged.stage (fun () ->
           List.map (fun l -> Sim.Input.index (rebuild l)) (Lazy.force vpr_loops)));
    Test.make ~name:"spsc/push-pop" (Staged.stage spsc_push_pop);
    Test.make ~name:"probe/record" (Staged.stage probe_record);
  ]
  @ flow_tests

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let () =
  let filters = List.tl (Array.to_list Sys.argv) in
  let selected =
    List.filter
      (fun t -> filters = [] || List.exists (fun sub -> contains ~sub (Test.name t)) filters)
      tests
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some [ t ] -> Printf.printf "%-32s %12.0f ns/run\n%!" name t
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n%!" name)
        results)
    selected
