(** 197.parser — grammatical sentence analysis (paper Section 4.3.2,
    Figure 6).

    Sentences are grammatically independent, so each parse runs as a
    phase-B task.  Parser {e commands} (e.g. toggling echo mode) are
    routed through the phase A thread, synchronizing them without
    speculation; the 60MB internal memory allocator is annotated
    Commutative.  Scaling is limited only by the longest sentence. *)

val study : Study.t
