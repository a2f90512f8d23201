(** The [repro validate-real] driver: run registry benchmarks on real
    domains and cross-check them against the simulator.

    For each selected benchmark this runs the {!Real_bench} pipeline at
    every thread count from 1 to [max_threads], checks that the
    parallel output is byte-identical to the sequential reference,
    measures wall-clock speedup, and prints it side by side with the
    simulator's predicted speedup for the same study at the same thread
    count (profile -> {!Core.Framework.build} -> {!Sim.Speedup.sweep}).

    With [trace] set, the first benchmark is re-run instrumented once
    per {e parallel} sweep point (2..[max_threads] threads) and each
    run's event stream written as its own Chrome trace: for [--trace
    out.json] the files are [out-t2.json], [out-t3.json], ...  The
    1-thread point runs the sequential reference, which has no roles and
    hence no events, so no [-t1] file is written.

    [corrupt] is the gate's self-test: it flips one byte of the first
    parallel output before comparison, which must make {!run} report a
    mismatch — proving the equality check can actually fail. *)

type point = {
  rp_study : string;
  rp_threads : int;  (** real domain count of the measured run *)
  rp_seconds : float;  (** measured wall-clock of the parallel section *)
  rp_speedup : float;  (** sequential wall-clock over [rp_seconds] *)
  rp_sim_speedup : float;  (** simulator's prediction at the same threads *)
  rp_ok : bool;  (** parallel output byte-identical to sequential *)
  rp_squashes : int;  (** mis-speculation squashes during the run *)
}
(** One measured (bench, threads) row of the printed table. *)

type outcome = {
  ok : bool;  (** every output byte-identical at every thread count *)
  benches : int;
  points : point list;  (** in printed order *)
}

val run :
  ?benches:string list ->
  ?max_threads:int ->
  ?scale:Benchmarks.Study.scale ->
  ?trace:string ->
  ?corrupt:bool ->
  unit ->
  outcome
(** Defaults: all 11 registry benchmarks, [max_threads = 4], [Small]
    scale, no trace, no corruption.  [max_threads] must be at least 1:
    [repro validate-real -t] rejects anything smaller as a usage error. *)
