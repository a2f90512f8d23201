(** Instrumentation context for workloads.

    A workload runs sequentially inside a [Profile.t], marking loop and
    task boundaries, attributing abstract work units, and recording every
    access to a shared location.  The context plays the role of the
    paper's combination of static phase marking, hardware performance
    counters (per-task times) and the memory-profiling pass: its output is
    a {!Ir.Trace.t} plus one {!Access_log.t} per parallelized loop.

    Typical shape of an instrumented loop:
    {[
      let dict = Profile.loc p "dictionary" in
      Profile.begin_loop p "compress";
      List.iteri (fun i block ->
        let _a = Profile.begin_task p ~iteration:i ~phase:Ir.Task.A () in
        Profile.work p (read_cost block);
        Profile.end_task p;
        let _b = Profile.begin_task p ~iteration:i ~phase:Ir.Task.B () in
        Profile.read p dict;
        Profile.work p (compress_cost block);
        Profile.write p dict (hash_of_dict ());
        Profile.end_task p;
        ...)
        blocks;
      Profile.end_loop p
    ]} *)

type t

val create : name:string -> t

val name : t -> string

(** {1 Shared locations} *)

val loc : t -> string -> int
(** Intern a named shared location; the same name always yields the same
    id within one context. *)

val loc_id : t -> string -> int option
(** Lookup without creating. *)

val loc_name : t -> int -> string
(** Inverse of {!loc}; raises [Not_found] for unknown ids. *)

(** {1 Structure} *)

val serial_work : t -> int -> unit
(** Attribute work outside any parallelized loop (sequential glue). *)

val begin_loop : t -> string -> unit
(** Open a parallelizable loop.  Loops do not nest. *)

val end_loop : t -> unit

val begin_task : t -> iteration:int -> phase:Ir.Task.phase -> ?intra:int -> unit -> int
(** Open a dynamic task; returns its id within the loop.  Tasks do not
    nest and must appear inside a loop, in sequential execution order
    (non-decreasing iteration). *)

val end_task : t -> unit

(** {1 Costs and accesses} *)

val work : t -> int -> unit
(** Attribute work units to the open task (or to serial glue when no task
    is open). *)

val read : t -> int -> unit
(** Record a read of a shared location by the open task.  Outside any
    loop nothing is logged; inside a loop a task must be open, else
    [Invalid_argument]. *)

val write : t -> int -> int -> unit
(** [write t loc v] records a store of value [v]; values feed
    silent-store detection and the last-value predictor.  Like {!read},
    raises [Invalid_argument] inside a loop with no open task. *)

val add_dep : t -> src:int -> dst:int -> kind:Ir.Dep.kind -> unit
(** Declare an explicit register/control dependence between two tasks of
    the open loop. *)

val commutative : t -> group:string -> (unit -> 'a) -> 'a
(** Run a function call inside a commutative section: accesses made during
    the call are tagged with [group], letting the resolver drop the
    function-internal dependences when the group carries a
    [Commutative] annotation.  Sections do not nest. *)

(** {1 Results} *)

val trace : t -> Ir.Trace.t
(** Finalize; all loops and tasks must be closed. *)

val log_of : t -> string -> Access_log.t
(** Access log of the named loop; raises [Not_found] if absent. *)

val logs : t -> (string * Access_log.t) list
