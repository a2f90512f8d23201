(** Reusable flat [int array] scratch buffers.

    Simulation hot paths need many task-indexed arrays per run; naively
    allocating them on every entry multiplies GC pressure — and, under
    several domains, cross-domain minor-GC synchronization.  An arena
    hands out slot-keyed buffers that persist between runs: the first
    acquisition allocates, later acquisitions of the same slot reuse the
    same (possibly larger) array.

    Contract: a buffer obtained from [ints t slot] is valid until the
    next [ints t slot] call with the same slot; callers must treat only
    the first [len] cells as theirs and must not rely on
    [Array.length] (buffers are over-allocated to amortize growth).
    Arenas are single-domain objects: keep one per domain (the
    simulator keeps its own in domain-local storage). *)

type t

val create : unit -> t

val ints : t -> int -> len:int -> int array
(** [ints t slot ~len] returns a buffer of length at least [len] for
    [slot], reusing the previous buffer when big enough.  Contents are
    unspecified (stale data from earlier uses). *)

val ints_filled : t -> int -> len:int -> fill:int -> int array
(** [ints] with the first [len] cells set to [fill]. *)
