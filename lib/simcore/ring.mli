(** Flat double-ended [int] queue over a circular buffer.

    For hot paths that move task ids: push/pop touch only
    preallocated cells (the buffer doubles on
    overflow), so a simulation tick enqueues and dequeues without
    producing any minor-heap garbage.  [peek_front_exn]/[pop_front_exn]
    avoid even the [option] box — check [is_empty] first. *)

type t

val create : ?capacity:int -> unit -> t
(** Initial capacity is rounded up to a power of two (default 16). *)

val length : t -> int

val is_empty : t -> bool

val push_back : t -> int -> unit

val push_front : t -> int -> unit
(** Insert at the head (next to be popped) — squash re-queues. *)

val peek_front_exn : t -> int
(** @raise Invalid_argument when empty. *)

val pop_front_exn : t -> int
(** @raise Invalid_argument when empty. *)

val peek_front : t -> int option

val pop_front : t -> int option

val clear : t -> unit

val to_list : t -> int list
(** Head-first. *)
