(** 256.bzip2 — block compression via BWT + MTF + Huffman
    (paper Section 4.1.1, Figure 4).

    compressStream already compresses the file in independent fixed-size
    blocks, so the framework parallelizes it without annotations: phase A
    reads each block (the TLS memory subsystem privatizes the block
    buffer), phase B runs doReversibleTransformation +
    moveToFrontCodeAndSend per block, phase C writes the output in order.
    The only limit is the small number of blocks the input yields. *)

val study : Study.t

val make_text : Study.scale -> string
(** The input the study compresses at this scale. *)

val block_count : scale:Study.scale -> int
