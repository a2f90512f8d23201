(** Lock-free bounded single-producer single-consumer ring queue — the
    real inter-stage channel of the Domain pipeline runtime.

    The layout follows {!Simcore.Ring}: a flat circular buffer indexed
    by monotonically increasing head/tail counters masked to a
    power-of-two capacity.  Head (consumer cursor) and tail (producer
    cursor) are separately allocated atomics, and each side keeps a
    cache-padded snapshot of the other's cursor ([int array] cells
    spaced a cache line apart), so the fast path of both push and pop
    touches no cache line the other domain writes: the producer
    re-reads the real head only when its snapshot says the ring looks
    full, the consumer re-reads the real tail only when its snapshot
    says the ring looks empty (the classic SPSC cursor-caching design).

    Publication safety comes from the OCaml 5 memory model: the plain
    buffer store in [push] happens-before the [Atomic.set] of the tail,
    which happens-before the consumer's [Atomic.get] of the same tail —
    so the consumer never observes an unpublished cell.  The symmetric
    argument on head covers cell reuse.

    Exactly one domain may push and exactly one may pop; nothing checks
    this (that is what makes the queue cheap). *)

type 'a t

exception Poisoned
(** Raised by blocking operations on a queue another role poisoned —
    the pipeline is being torn down after an error. *)

val create : ?capacity:int -> unit -> 'a t
(** Capacity is rounded up to a power of two; default 64. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Occupancy snapshot; exact only when both sides are quiescent. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the ring is full.  @raise Poisoned on a poisoned queue. *)

val backoff : int -> unit
(** [backoff k] waits before retry [k] of a blocked push or pop: a
    [Domain.cpu_relax] for the first 512 retries, then a short sleep, so
    on a machine with fewer free cores than domains a spinning side
    yields its timeslice to the peer it waits on.  {!push}, {!pop} and
    every other blocking loop over a queue share this one policy. *)

val push : 'a t -> 'a -> unit
(** Spin (with {!backoff}) until space is available.
    @raise Poisoned if the queue is poisoned while waiting. *)

val try_pop : 'a t -> [ `Item of 'a | `Empty | `Closed ]
(** [`Closed] only once the queue is both closed and drained.
    @raise Poisoned on a poisoned queue. *)

val pop : 'a t -> 'a option
(** Spin until an item arrives; [None] once the queue is closed and
    drained.  @raise Poisoned if the queue is poisoned while waiting. *)

val close : 'a t -> unit
(** Producer signals end of stream.  Items already in the ring remain
    poppable. *)

val poison : 'a t -> unit
(** Error teardown: every current and future operation on the queue
    raises {!Poisoned}.  Safe from any domain. *)
