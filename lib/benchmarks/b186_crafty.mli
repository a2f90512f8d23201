(** 186.crafty — alpha-beta game search (paper Section 4.3.1, Figure 6).

    The root moves of SearchRoot are searched in parallel, and the
    recursion is unrolled one level (each root move's replies become
    separate tasks), as the paper does to overcome the high variance of
    per-move search times.  The [search] structure is value-predicted to
    return to its pre-iteration state (UnMakeMove undoes MakeMove), the
    [next_time_check] branch is control-speculated, and the search caches
    ([trans_ref], [pawn_hash_table]) are annotated Commutative. *)

val study : Study.t
