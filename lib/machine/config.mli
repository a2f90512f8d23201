(** Machine model configuration.

    The paper's simulator models 1 to 32 cores communicating through
    shared memory and 256 core-to-core queues of 32 entries each, backed
    by a versioned memory subsystem (Section 3.1).  Communication latency
    is charged per queue hop. *)

type t = {
  cores : int;  (** total cores available, >= 1 *)
  queue_capacity : int;  (** entries per core-to-core queue (paper: 32) *)
  comm_latency : int;  (** work units per queue hop *)
}

val make : cores:int -> ?queue_capacity:int -> ?comm_latency:int -> unit -> t
(** Defaults: 32-entry queues, latency 1.  Raises [Invalid_argument] on
    non-positive cores or capacity. *)

val default : cores:int -> t

val pp : Format.formatter -> t -> unit
(** Prints the paper's 256-queue budget beside the machine size. *)
