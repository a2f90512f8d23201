type t = {
  study : Benchmarks.Study.t;
  scale : Benchmarks.Study.scale;
  built : Framework.built;
  series : Sim.Speedup.series;
}

let run ?pool ?(scale = Benchmarks.Study.Small)
    ?(threads = Sim.Speedup.paper_thread_counts)
    ?(policy = Sim.Pipeline.default_policy) ?(use_baseline_plan = false) study =
  let plan =
    if use_baseline_plan then
      Option.value ~default:study.Benchmarks.Study.plan study.Benchmarks.Study.baseline_plan
    else study.Benchmarks.Study.plan
  in
  let profile = study.Benchmarks.Study.run ~scale in
  let built = Framework.build ~plan profile in
  let series =
    Sim.Speedup.sweep ?pool ~threads ~policy ~label:study.Benchmarks.Study.spec_name
      built.Framework.input
  in
  { study; scale; built; series }

let best t = Sim.Speedup.best t.series

type table2_row = {
  name : string;
  threads : int;
  speedup : float;
  moore : float;
  ratio : float;
  paper_speedup : float;
  paper_threads : int;
}

let table2_row t =
  let b = best t in
  let moore = Sim.Speedup.moore_speedup ~threads:b.Sim.Speedup.threads in
  {
    name = t.study.Benchmarks.Study.spec_name;
    threads = b.Sim.Speedup.threads;
    speedup = b.Sim.Speedup.speedup;
    moore;
    ratio = b.Sim.Speedup.speedup /. moore;
    paper_speedup = t.study.Benchmarks.Study.paper_speedup;
    paper_threads = t.study.Benchmarks.Study.paper_threads;
  }

let misspec_total t ~threads =
  match Sim.Speedup.at_threads t.series threads with
  | None -> 0
  | Some p ->
    List.fold_left
      (fun acc (_, (r : Sim.Pipeline.loop_result)) -> acc + r.Sim.Pipeline.misspec_delayed)
      0 p.Sim.Speedup.result.Sim.Pipeline.loops

let summary cfg (input : Sim.Input.t) =
  let fold = Obs.Summary.fold ~slots:(Dswp.Planner.b_core_count cfg) in
  List.iter
    (function
      | Sim.Input.Serial _ -> ()
      | Sim.Input.Parallel loop ->
        let r = Sim.Pipeline.run_loop cfg ~obs:(Obs.Summary.sink fold) loop in
        Obs.Summary.add_counts fold ~misspec_delayed:r.Sim.Pipeline.misspec_delayed
          ~squashes:r.Sim.Pipeline.squashes)
    input.Sim.Input.segments;
  Obs.Summary.snapshot fold
