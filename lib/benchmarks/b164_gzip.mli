(** 164.gzip — LZ77 compression with Y-branch block boundaries
    (paper Sections 4.4.1, Figure 7).

    The deflate loop compresses the input in blocks; in the original
    program the decision to start a new block depends on achieved
    compression, an unpredictable loop-carried dependence.  The Y-branch
    lets the compiler start a new block at fixed intervals instead,
    making blocks independently compressible at a small (< 1%) ratio
    loss. *)

val study : Study.t

val make_text : Study.scale -> string
(** The input the study compresses at this scale. *)

val run_with_policy : ybranch:bool -> scale:Study.scale -> Profiling.Profile.t
(** [ybranch:false] keeps the original heuristic block boundaries — the
    dictionary dependence then serializes the loop (ablation). *)

val compression_loss : scale:Study.scale -> float
(** Relative increase of compressed size when fixed-interval blocking
    replaces the heuristic (the paper reports < 1%). *)
