(** 253.perlbmk — Perl interpreter (paper Section 4.1.3, Figure 4).

    The runops loop executes input statements speculatively in parallel:
    phase A chases [next_op] to pre-compute the next NEXTSTATE boundary,
    phase B executes the statement's operations on the virtual stack
    machine, value speculation asserts that [PL_stack_sp] and
    [PL_tmps_ix] return to their usual values at each statement boundary.
    True data dependences between input statements cause the
    misspeculation that caps the speedup near 1.2x. *)

val study : Study.t
