(** Dependences between dynamic tasks.

    The memory profiler produces [Memory] edges (read-after-write on a
    shared location); workloads may also declare [Register] and [Control]
    edges directly.  Each raw edge is later {e resolved} by the
    parallelization into an action: synchronize it, speculate it, or
    remove it entirely (annotations, silent stores, correct value
    prediction). *)

type kind = Register | Memory | Control

val kind_to_string : kind -> string

type t = {
  src : int;  (** producing task id *)
  dst : int;  (** consuming task id; [dst] observes a value from [src] *)
  kind : kind;
  loc : int;  (** shared-location id for memory edges; -1 otherwise *)
}

val make : src:int -> dst:int -> kind:kind -> ?loc:int -> unit -> t
(** Requires [src <> dst]. *)

val pp : Format.formatter -> t -> unit

type action =
  | Synchronize  (** consumer start waits for producer finish *)
  | Speculate
      (** break optimistically; a dynamic occurrence serializes the
          consumer after the producer (paper Section 3.1) *)
  | Remove
      (** dependence does not constrain execution (annotation, silent
          store, or a correctly predicted value) *)

type resolved = { edge : t; action : action }
