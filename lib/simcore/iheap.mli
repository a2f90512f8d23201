(** Allocation-free integer min-heap.

    The unboxed sibling of {!Heap} for event queues on simulation hot
    paths: each entry is a priority plus two integer payload words, all
    stored in flat parallel arrays.  Equal priorities pop in insertion
    order (FIFO), matching {!Heap}.  [pop] deposits its result in
    mutable out-fields — read them with [popped_prio]/[popped_a]/
    [popped_b] immediately after a [pop] that returned [true]; they are
    overwritten by the next [pop]. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add : t -> prio:int -> int -> int -> unit
(** [add t ~prio a b] inserts payload [(a, b)] at [prio]. *)

val pop : t -> bool
(** Remove the minimum entry; [false] when empty.  On [true], the
    popped entry is available via the accessors below. *)

val min_prio : t -> int
(** Priority of the minimum entry, without removing it; only meaningful
    on a non-empty heap. *)

val popped_prio : t -> int

val popped_a : t -> int

val popped_b : t -> int

val clear : t -> unit
(** Empty the heap and reset the FIFO sequence counter; keeps the
    backing arrays for reuse. *)
