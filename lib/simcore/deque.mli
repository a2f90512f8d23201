(** Mutable double-ended FIFO with amortized O(1) operations.

    Each [Parallel.Pool] worker keeps its tasks in one: the owner
    pushes and pops at the head, thieves take from the tail.  A two-list
    banker's queue under a mutable record gives all of these without
    the O(n) cost of [l @ [x]]. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
(** Append at the tail. *)

val push_front : 'a t -> 'a -> unit
(** Insert at the head (next to be popped). *)

val peek_front : 'a t -> 'a option

val pop_front : 'a t -> 'a option

val peek_back : 'a t -> 'a option

val pop_back : 'a t -> 'a option
(** Remove at the tail — a work-stealing thief takes the oldest entries
    from the back while the owner pushes and pops at the front.
    Amortized O(1) when one end dominates; [length] stays O(1) always. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Head-first. *)
