(** Binary min-heap keyed by an integer priority.

    The reference {!Iheap} is tested against.  Ties are broken by
    insertion order, so pop order is deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> prio:int -> 'a -> unit
(** Insert an element with the given priority. *)

val pop_min : 'a t -> (int * 'a) option
(** Remove and return the (priority, element) pair with the smallest
    priority; among equal priorities the earliest-inserted wins. *)

val peek_min : 'a t -> (int * 'a) option

val clear : 'a t -> unit
