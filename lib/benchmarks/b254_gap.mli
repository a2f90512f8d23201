(** 254.gap — computational algebra interpreter (paper Section 4.2.2,
    Figure 5).

    Like perlbmk, input statements execute speculatively in parallel, and
    the bump allocator must be annotated Commutative for the framework to
    extract the parallelism at all.  The remaining misspeculation comes
    from true statement dependences (the [Last] variable) and — dominantly
    — from the copying garbage collector, which moves every live object
    and thus conflicts with everything downstream. *)

val study : Study.t
