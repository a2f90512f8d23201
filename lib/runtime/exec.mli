(** Execute a {!Staged.t} pipeline on real OCaml 5 domains.

    Thread mapping follows the paper's plan: [threads = 1] runs the
    sequential reference; [threads = 2] dedicates one domain to stage A
    and fuses B and C on the second; [threads >= 3] dedicates one
    domain to A, one to C, and replicates stage B on the remaining
    [threads - 2] domains (PS-DSWP).  Work distribution is round-robin:
    iteration [i] flows through the SPSC queue pair of replica
    [i mod replicas], which both keeps every queue single-producer /
    single-consumer and lets stage C restore iteration order without
    reordering buffers — so the observable output is byte-identical to
    {!Staged.run_seq} at every thread count.

    The stage roles run as one {!Parallel.Pool.parallel_for} batch of
    one item per role, and the role count never exceeds the pool's
    size.  On an idle pool such a batch runs every item at the same
    time, each on its own domain (the property {!Parallel.Pool} states),
    so the roles can block on one another through the queues.

    [Spec] pipelines speculate against a store that only C writes:
    committed values in a flat [int] array indexed by location, sized
    from [sp_init] and grown by C on a write past its end (a read past
    the end sees 0).  B replicas read it without a lock and log every
    [(location, value)] they read.  Each replica also forwards the
    writes of its own iterations that C has not yet committed, from a
    private overlay that C's commit count retires, so a single replica
    reads every value the sequential run would.  C validates at commit:
    every value the iteration read must equal the committed (i.e.
    sequential) value.  A stale read squashes the attempt, and the
    iteration re-executes against committed state on C's domain before
    it commits.  An attempt that raised is validated the same way: after
    a stale read the exception is dropped with the attempt, and
    otherwise it is re-raised, as {!Staged.run_seq} would raise it.
    Mis-speculation therefore costs time, never correctness, and the
    squash count is reported in {!stats} rather than in the output bytes
    (which timing must not influence).  The store stands in for the
    paper's versioned-memory hardware; [Machine.Versioned_memory], the
    reference model of that hardware, is not used here. *)

(** One role's totals, folded from its probe histograms ({!role_probe}),
    whose spans are stamped in microseconds. *)
type role_stats = {
  rs_role : string;  (** "A", "B0".."Bn", "C" *)
  rs_items : int;  (** items this role processed: its stage count *)
  rs_busy : float;  (** seconds spent in stage bodies and squash re-executions *)
  rs_starved : float;  (** seconds blocked popping an empty in-queue *)
  rs_blocked : float;  (** seconds blocked pushing a full out-queue *)
}

type stats = {
  threads : int;
  replicas : int;  (** B replica count actually used *)
  seconds : float;  (** wall clock of the pipeline section *)
  squashes : int;  (** iterations re-executed after a stale read *)
  violations : int;  (** stale reads found by commit-time validation *)
  roles : role_stats array;
      (** A, B replicas, C — in that order; empty unless the run was
          probed and parallel *)
}

(** One SPSC ring, folded from its producer's push records. *)
type queue_stat = {
  qs_queue : Obs.Event.queue;
  qs_slot : int;
  qs_capacity : int;
  qs_high_water : int;  (** highest occupancy after any push *)
  qs_pushes : int;
}

(** Latency histograms drained from one role's {!Obs.Probe} ring.  All
    samples are durations in microseconds. *)
type role_probe = {
  rp_role : string;  (** "A", "B0".."Bn", "C" *)
  rp_stage : Obs.Hist.t;
      (** stage-body latency: dispatch (A) / run (B) / commit (C) *)
  rp_push_stall : Obs.Hist.t;  (** time blocked pushing a full ring *)
  rp_pop_stall : Obs.Hist.t;  (** time blocked popping an empty ring *)
  rp_squash : Obs.Hist.t;  (** re-execution cost after a stale read *)
  rp_validate : Obs.Hist.t;  (** commit-time validation of a [Spec] attempt's reads *)
}

type telemetry = {
  tl_roles : role_probe array;  (** parallel to [stats.roles] *)
  tl_queues : queue_stat list;  (** in-queues then out-queues, by slot *)
  tl_dropped : int;  (** probe records lost to ring wrap *)
}

type recording
(** The per-role probe rings a run retains; {!events} decodes them. *)

type result = {
  output : string;  (** observable output; must equal [Staged.run_seq] *)
  stats : stats;
  telemetry : telemetry option;
      (** probe aggregates; present iff [~probe:true] and the run was
          actually parallel (the sequential path has no roles) *)
  recording : recording;
}

val run :
  ?pool:Parallel.Pool.t ->
  ?probe:bool ->
  threads:int ->
  name:string ->
  Staged.t ->
  result
(** [run ~threads ~name staged] executes the pipeline on [threads]
    domains ([<= 1] means sequentially).  With [?pool] the roles run on
    the given pool (clamping the stage layout to its size); otherwise a
    dedicated pool of exactly the role count is created and shut down.
    Each SPSC ring holds 64 entries, the paper's 32-entry queues
    doubled to amortize cursor traffic.
    [?probe] (default off) gives every role a private {!Obs.Probe} ring,
    sized from [Staged.iterations] so it never wraps.  Each role records
    its stage bodies, stalls, squashes, validations and every push and
    pop; after the roles join, the rings are folded into
    [stats.roles] and {!result.telemetry} (latencies, queue push counts
    and high-water marks), and {!events} decodes the full event stream.
    Probing never touches the output bytes — it only reads clocks and
    writes preallocated rings — so output stays byte-identical to a
    probe-off run.  With probes off no telemetry clock is read and no
    event is built: each would-be record costs one pattern match.  If
    a stage body raises (a speculative B attempt only once C finds none
    of its reads stale), all queues are poisoned, every role unwinds,
    and the first exception is re-raised on the caller. *)

val events : result -> Obs.Event.t list
(** The real-execution event stream of a probed parallel run, decoded
    from its probe rings: [Loop_begin] first, [Loop_end] last, and in
    between, in time order (microseconds since the run started), a
    [Task_start]/[Task_finish] pair per stage body (task [3i], [3i+1],
    [3i+2] for A, B, C of iteration [i]; the core is the role index),
    an [Iter_commit] per iteration, a [Task_squash] per squash, and a
    [Queue_push]/[Queue_pop] per queue operation with the ring's
    occupancy after it.  Empty for a probe-off or sequential run. *)

val pp_telemetry : stats -> Format.formatter -> telemetry -> unit
(** Per-role latency histograms and per-queue high-water table
    (the [repro profile-real] report body). *)
