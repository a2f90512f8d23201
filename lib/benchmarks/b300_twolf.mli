(** 300.twolf — standard-cell place and route (paper Section 4.3.3,
    Figure 6).

    Iterations of the uloop swap loop run speculatively in parallel.  Two
    misspeculation sources limit them: the variable number of calls to
    the pseudo-random generator — removed by annotating the generator
    [Commutative] — and true alias violations on the block and net
    structures, which remain and bound the speedup near 2x. *)

val study : Study.t
