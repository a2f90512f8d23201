(** Machine-readable summaries: the simulator's counters, queue gauges
    and occupancy series, folded from its event stream, plus span
    aggregates, as JSON or a flat CSV table.  The bench harness writes
    both as [BENCH_summary.{json,csv}]; [repro run --summary] writes
    one for a study. *)

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

val span_json : Span.row -> Json.t

val to_json :
  ?metrics:snapshot -> ?spans:Span.row list -> ?extra:(string * Json.t) list -> unit -> Json.t
(** [extra] fields are appended at the top level — the bench harness
    attaches per-study attribution blocks this way. *)

val csv_header : string

val to_csv : ?metrics:snapshot -> ?spans:Span.row list -> unit -> string
(** Flat table: [kind,name,value,high_water,count,total_seconds,
    mean_seconds,max_seconds]; cells a kind lacks stay empty.  Series
    are JSON-only. *)

val write_file : string -> string -> unit

val write_json :
  ?metrics:snapshot -> ?spans:Span.row list -> ?extra:(string * Json.t) list -> string -> unit

val write_csv : ?metrics:snapshot -> ?spans:Span.row list -> string -> unit
