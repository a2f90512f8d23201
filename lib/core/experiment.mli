(** Run one benchmark study through the whole pipeline and sweep thread
    counts — the unit of work behind every figure and table. *)

type t = {
  study : Benchmarks.Study.t;
  scale : Benchmarks.Study.scale;
  built : Framework.built;
  series : Sim.Speedup.series;
}

val run :
  ?pool:Parallel.Pool.t ->
  ?scale:Benchmarks.Study.scale ->
  ?threads:int list ->
  ?policy:Sim.Pipeline.policy ->
  ?use_baseline_plan:bool ->
  Benchmarks.Study.t ->
  t
(** Defaults: [Small] scale, the paper's thread sweep, the paper's
    Serialize policy, the study's annotated plan.
    [use_baseline_plan:true] switches to the study's annotation-free
    baseline (identity when the study has none).  [?pool] parallelizes
    the thread sweep across domains; the result is identical to the
    sequential run (profiling and plan resolution stay on the calling
    domain, and sweep points are independent). *)

val best : t -> Sim.Speedup.point

type table2_row = {
  name : string;
  threads : int;
  speedup : float;
  moore : float;
  ratio : float;
  paper_speedup : float;
  paper_threads : int;
}

val table2_row : t -> table2_row

val misspec_total : t -> threads:int -> int
(** Total tasks a speculated edge delayed at the given machine size. *)

val summary : Machine.Config.t -> Sim.Input.t -> Obs.Summary.snapshot
(** Simulate each parallel loop of the input once on the given machine
    and fold its event stream into an {!Obs.Summary} snapshot (sample
    times loop-local).  Behind [repro run --summary]. *)
