(** Wiring of the {!Dswp.Search} planner tournament to the real
    framework: registry studies in, ranked plans out.

    {!Dswp.Search} is deliberately blind to lint, scoring and the
    simulator (those libraries sit above [dswp] in the dependency
    order), so this module supplies its hooks:

    - {b lint}: {!Lint.Driver.run} on each (candidate partition,
      derived plan) pair; error-severity diagnostics prune the
      candidate before any scoring;
    - {b measure}: the candidate is realized once through
      {!Sim.Realize} and scored with the sound bound
      [loop work / Sim.Analytic.lower_bound] — the analytic bound
      ignores latency and queue pressure, so no simulated speedup can
      exceed it and branch-and-bound pruning never discards a
      potential winner — plus the attribution engine's binding-bound
      label mirrored statically;
    - {b simulate}: survivors are sharded across a {!Parallel.Pool}
      (deduplicated first: candidates that realize to the same loop
      under the same machine config share one simulation), simulated
      with the oracle's own validation applied explicitly to every
      run.

    Candidate plans are derived from the hand plan by projecting it
    onto each breaker subset: enabled kinds keep the hand plan's
    scope (or a sensible total default when the hand plan never used
    the kind), disabled kinds are zeroed, and Commutative groups the
    subset enables are guaranteed a rollback-bearing registry entry.
    The hand plan itself rides along as a seed candidate that is
    always simulated, so the reported winner provably matches or
    beats it. *)

type report = {
  bench : string;
  threads : int;
  beam : int;
  budget : int;
  search : Dswp.Search.result;
}

val run :
  pool:Parallel.Pool.t ->
  ?beam:int ->
  ?budget:int ->
  ?threads:int ->
  ?corrupt:bool ->
  Benchmarks.Study.t ->
  report
(** Defaults: [beam] 8, [budget] 64, [threads] 16 (simulated cores for
    replicated candidates; non-replicated ones run a plain 3-core
    pipeline), [corrupt] false.  Every candidate is realized over 64
    iterations and simulated with [comm_latency] 1.
    [corrupt] enables the self-test mutation: every non-seed
    candidate's partition has a serial stage merged into the
    replicated stage, which must be caught by the lint pruner. *)

val seed_speedup : report -> float option
(** The hand-plan seed's speedup; [None] when lint pruned it. *)

val winner_speedup : report -> float option

val oracle_clean : report -> bool
(** Every simulated outcome passed {!Sim.Oracle.validate}. *)

val pp : Format.formatter -> report -> unit
(** The ranked table: simulated candidates by speedup, then pruned
    ones, followed by the prune counters ("lint-pruned N" etc.) and
    the winner line.  Byte-deterministic for a given study and
    parameters, independent of the pool size. *)
