(* Bechamel micro-benchmarks of the primitives under the profiled studies,
   the simulator and the schedule analysis: one kernel call per run,
   reported in ns/run.  Use it
   for a before/after of a single primitive; the end-to-end benchmark is
   bench/perf.

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

(* The 164.gzip loop at Small scale, simulated on 8 cores.  The simulator
   memoizes a loop's static data by physical identity, so a fresh copy of
   the record is a cold build and the loop itself a warm one; the
   difference between the two tests is the static-data build.  Each copy
   gets its own name so that copies do not all hash to one bucket of the
   memo. *)
let gzip_loop =
  lazy
    (let gzip = Benchmarks.B164_gzip.study in
     let profile = gzip.Benchmarks.Study.run ~scale:Benchmarks.Study.Small in
     let built = Core.Framework.build ~plan:gzip.Benchmarks.Study.plan profile in
     List.find_map
       (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
       built.Core.Framework.input.Sim.Input.segments
     |> Option.get)

let sim_cfg = Machine.Config.default ~cores:8

(* The 300.twolf loop at Large scale (9000 tasks), simulated at the
   study's thread count with its events recorded: the input of one
   attribution timeline and one oracle pass. *)
let twolf_run =
  lazy
    (let twolf = Benchmarks.B300_twolf.study in
     let profile = twolf.Benchmarks.Study.run ~scale:Benchmarks.Study.Large in
     let built = Core.Framework.build ~plan:twolf.Benchmarks.Study.plan profile in
     let loop =
       List.find_map
         (function Sim.Input.Parallel l -> Some l | Sim.Input.Serial _ -> None)
         built.Core.Framework.input.Sim.Input.segments
       |> Option.get
     in
     let cfg = Machine.Config.default ~cores:twolf.Benchmarks.Study.paper_threads in
     let recorder = Obs.Sink.recorder () in
     let r =
       Sim.Pipeline.run_loop cfg ~validate:false ~obs:(Obs.Sink.record recorder) loop
     in
     (cfg, loop, r, Obs.Sink.events recorder))

let simulate loop = ignore (Sim.Pipeline.run_loop sim_cfg ~validate:false loop)

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
      (let copies = ref 0 in
       Staged.stage (fun () ->
           incr copies;
           simulate { (Lazy.force gzip_loop) with Sim.Input.name = string_of_int !copies }));
    Test.make ~name:"sim/gzip-loop-warm-static"
      (Staged.stage (fun () -> simulate (Lazy.force gzip_loop)));
    Test.make ~name:"analysis/timeline-twolf"
      (Staged.stage (fun () ->
           let cfg, loop, r, events = Lazy.force twolf_run in
           Obs_analysis.Timeline.of_events cfg loop r events));
    Test.make ~name:"oracle/validate-twolf"
      (Staged.stage (fun () ->
           let cfg, loop, r, _ = Lazy.force twolf_run in
           Sim.Oracle.validate cfg loop r));
  ]

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
