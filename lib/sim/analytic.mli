(** Analytic bounds used to cross-check the event-driven simulator.

    These are provable bounds on any legal schedule of a loop under the
    A/B/C plan; the test suite asserts the simulator never reports a span
    outside them. *)

val critical_path : Input.loop -> int
(** Longest weighted path through the task DAG (structural pipeline edges
    plus synchronized and speculated edges, since both delay consumers
    under the Serialize policy), ignoring core counts, queue capacities
    and latencies.  A lower bound on any span with zero latency. *)

val phase_work : Input.loop -> int * int * int
(** Total work per phase (A, B, C). *)

val b_throughput : Machine.Config.t -> int -> int
(** [b_throughput cfg b_work]: phase B work spread over the machine's B
    cores (at least one), rounded up. *)

val stage_bound : Machine.Config.t -> Input.loop -> int
(** Max of the serial-stage bottlenecks: phase A and phase C work each
    bound the span (they run on one core), and phase B work divided by
    the B-core count bounds it too. *)

val lower_bound : Machine.Config.t -> Input.loop -> int
(** Max of {!critical_path} and {!stage_bound}.  A caller that already
    holds the critical path takes the max with {!stage_bound} instead of
    computing the path again. *)

val upper_bound : Input.loop -> int
(** Total work: no legal schedule is slower than serial execution when
    latency is zero. *)
