(** Staged (really-executable) realizations of the 11 registry benchmarks.

    Each function builds a fresh {!Staged.t} that runs the benchmark's
    parallelized loop on the {e real} workload kernels from
    {!Workloads} — the same substrates the simulator studies
    instrument — cut along the paper's A|B|C partition.  The observable
    output is a deterministic digest stream (one line per iteration
    plus a trailing summary), so byte-comparing a parallel run against
    {!Staged.run_seq} checks end-to-end execution equivalence.

    [175.vpr] and [300.twolf] are [Spec] pipelines: their B stage reads
    and writes a shared placement through the speculation protocol, so
    real runs exercise {!Exec}'s lock-free store, commit-time validation
    and squash.  The other nine are [Pure] pipelines. *)

val staged : ?scale:Benchmarks.Study.scale -> string -> Staged.t
(** [staged name] builds a fresh pipeline for registry benchmark [name]
    (full spec name like ["164.gzip"] or short name like ["gzip"]).
    Raises [Not_found] for unknown names.  Default scale is [Small]. *)

val names : string list
(** The 11 full spec names, registry order. *)

val small_three : string list
(** The three fastest-running benches — used by the sim-vs-real
    ordering test and the CI smoke. *)
