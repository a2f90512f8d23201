(** Per-core stall taxonomy over a recorded event stream.

    [of_events] partitions every core's [0, span] interval into
    categories, so the whole machine's time is conserved: for each core
    the segment lengths sum to the span exactly, and summed over cores
    they equal span × cores.  The busy segments come straight from
    [Task_start]/[Task_finish]/[Task_squash] events (a mid-run squash
    contributes only its elapsed time, mirroring the simulator's busy
    accounting); the gaps between them are classified from the
    reconstructed queue-occupancy step functions:

    - {b Producer_blocked} — the core has work to push but the
      downstream queue is at capacity: the A core with every in-queue
      full, or a B core whose out-queue is full.
    - {b Consumer_starved} — the core is waiting for upstream data: a B
      core with an empty in-queue, or the C core before the next
      uncommitted iteration's results have all been delivered.
    - {b Dep_wait} — data is present but a dependence (synchronized or
      speculated edge, or the one-hop communication latency) gates the
      next task's start.
    - {b Idle} — the tail after the core's last execution (or a core the
      plan never uses).

    On a 0/1-core machine the loop runs serially: core 0 is all busy,
    nothing else is classified. *)

type category = Busy | Producer_blocked | Consumer_starved | Dep_wait | Idle

val category_name : category -> string

val categories : category list

type segment = { t0 : int; t1 : int; cat : category }

type core_line = { core : int; segments : segment list }
(** Segments in time order, tiling [0, span]. *)

type t = {
  span : int;
  cores : core_line array;
  in_queues_full : int;
      (** time during which {e every} in-queue slot was at (or, via
          squash re-inserts, above) capacity — the condition that blocks
          the A core's dispatch *)
  any_in_queue_full : int;  (** time during which at least one was *)
  any_out_queue_full : int;
}

val of_events :
  Machine.Config.t -> Sim.Input.loop -> Sim.Sched.loop_result -> Obs.Event.t list -> t
(** [events] in emission (time) order, as the simulator records them; a
    prefix of a recording is accepted, its open runs lasting to the
    span.  Cost: one pass over the events plus one forward sweep over
    each core's gaps, O(events + segments). *)

val core_total : core_line -> category -> int

val total : t -> category -> int
(** Summed over cores. *)

val check : t -> (unit, string) result
(** Tiling invariant: every core's segments are contiguous, start at 0,
    end at the span, and have non-negative lengths — hence all category
    totals sum to span × cores. *)

val pp : Format.formatter -> t -> unit
