(** Event sinks: where the simulator sends {!Event.t}s.

    The default is {!null}, and emission sites guard on {!enabled}, so a
    simulation that nobody observes allocates no event records and pays
    one branch per would-be event — observability is free until asked
    for. *)

type t

val null : t
(** Drops everything; [enabled null = false]. *)

val make : (Event.t -> unit) -> t
(** An enabled sink around an arbitrary consumer. *)

val emit : t -> Event.t -> unit

val enabled : t -> bool
(** Emission sites should test this before {e constructing} an event, so
    the null sink costs no allocation. *)

val offset : int -> t -> t
(** [offset base t] shifts every event by [base] time units before
    forwarding — used by [Sim.Pipeline.run] to rebase loop-local times to
    program time.  The null sink and a zero base pass through. *)

(** In-memory recorder, the input of {!Trace_event.export}. *)
type recorder

val recorder : unit -> recorder

val record : recorder -> t
(** A sink appending into the recorder. *)

val events : recorder -> Event.t list
(** Recorded events in emission order. *)

val count : recorder -> int

val clear : recorder -> unit
