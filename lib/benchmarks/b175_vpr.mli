(** 175.vpr — FPGA placement (paper Section 4.3.4, Figure 6).

    try_place's annealing schedule produces distinct conflict regimes:
    early outer iterations accept most swaps (speculation fails more than
    80% of the time), late iterations accept few (speculation mostly
    succeeds).  Each outer iteration is one parallelized loop here.  The
    RNG is Commutative, block coordinates are value-speculated (their
    loads usually see unchanged values), and the net structures are
    alias-speculated. *)

val study : Study.t

val temperature_schedule : float list
(** Acceptance thresholds of the outer iterations, hot to cold. *)
