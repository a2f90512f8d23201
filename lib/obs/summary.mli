(** Machine-readable summaries: the simulator's counters, queue gauges
    and occupancy series, folded from its event stream, as JSON or a
    flat CSV table.  [repro run --summary] writes one for a study. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * (int * int)) list;  (** (last value, high water) *)
  series : (string * (int * int) list) list;  (** (time, value) samples in order *)
}
(** Each list is name-sorted, so output is deterministic. *)

(** {1 Folding the simulator's event stream} *)

type fold
(** The running summary of one or more simulated loops. *)

val fold : slots:int -> fold
(** An empty fold for a machine whose plan gives phase B [slots]
    replicas ([Dswp.Planner.b_core_count]); the snapshot lists one
    in- and one out-queue series per slot, touched or not. *)

val sink : fold -> Sink.t
(** Feeds the fold, keeping no event list.  Attach it to each loop's
    run ([Sim.Pipeline.run_loop ~obs]), so sample times stay
    loop-local:
    - [busy/A..C]: each [Task_start]'s work, minus, for each
      [Task_squash], the part of that run it never executed;
    - per queue direction, each [Queue_push]/[Queue_pop]'s occupancy
      sets the gauge ([in_queue_occupancy], [out_queue_occupancy]:
      last value, high water) and extends its slot's series
      ([in_queue/<slot>], [out_queue/<slot>]). *)

val add_counts : fold -> misspec_delayed:int -> squashes:int -> unit
(** Adds a loop's [misspec_delayed] and [squashes] counts, taken from
    its [loop_result]. *)

val snapshot : fold -> snapshot

(** {1 Emitters} *)

val metrics_json : snapshot -> Json.t

val to_json : snapshot -> Json.t
(** [{"metrics": metrics_json s}]. *)

val csv_header : string

val to_csv : snapshot -> string
(** Flat table: [kind,name,value,high_water], one row per counter and
    gauge; a counter's [high_water] cell stays empty.  Series are
    JSON-only. *)

val write_json : snapshot -> string -> unit
(** [write_json s path] writes [to_json s] and a newline to [path]. *)

val write_csv : snapshot -> string -> unit
