(** Pool of worker domains for running independent experiment points in
    parallel.

    Hand-rolled on stdlib [Domain]/[Mutex]/[Condition] — no external
    dependency.  A pool of size [n] is the submitting domain plus [n - 1]
    spawned domains, which share one list of open batches.  A batch's
    items are claimed one at a time.  The submitter works through its own
    batch first, then helps the oldest open batch until its own has
    finished; an idle domain takes the oldest batch that still has an
    unclaimed item.  So a [map] issued from inside an item (a sweep
    inside a study) is open to every idle domain instead of running
    sequentially in the calling one.

    A domain claims an item only when it is idle, or from inside a
    [map] or [parallel_for] that its running item made; it never sets a
    running item aside.  On an idle pool, a batch of at most [size]
    items that submit no batch of their own therefore runs all of its
    items at the same time, each on its own domain, so they may block
    on one another.  [Runtime.Exec] relies on this for its pipeline
    roles.

    Determinism: [map] gathers results by input index, so the output
    array is bit-identical to [Array.map] regardless of which domain
    computed which element — provided the function itself is
    deterministic per element (all simulator entry points are; every RNG
    in the reproduction is seeded per study).  The pool's scheduling
    changes only wall clock, never result placement. *)

type t

val create : domains:int -> t
(** [create ~domains] makes a pool of total parallelism [domains]
    (clamped below at 1): the owner plus [domains - 1] spawned worker
    domains.  The pool is reusable for any number of batches until
    [shutdown]. *)

val size : t -> int
(** Total parallelism of the pool, including the submitting domain. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr], computed by the pool.  Results
    are ordered by input index.  If [f] raises on any element, the
    batch still drains and the first captured exception is re-raised
    (with its original backtrace) in the caller; which exception is
    "first" is unspecified when several elements raise.  A pool of size
    1, or an array of at most one element, is mapped in the caller. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map] for lists, preserving order. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n body] runs [body i] for [0 <= i < n] across the
    pool.  Same exception contract as [map]. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  A shut-down pool remains
    usable: subsequent batches run sequentially in the caller. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] creates a pool, applies [f], and shuts the
    pool down even if [f] raises. *)

val default_domains : unit -> int
(** Parallelism knob for the harness binaries: [REPRO_JOBS] from the
    environment if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)
