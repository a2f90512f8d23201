(** Burrows-Wheeler transform with move-to-front and run-length coding —
    the core of bzip2's per-block pipeline ("doReversibleTransformation"
    followed by "moveToFrontCodeAndSend"). *)

type transformed = {
  data : string;  (** last column of the sorted rotation matrix *)
  primary : int;  (** row index of the original string *)
}

val transform_with_work : string -> transformed * int
(** BWT via rotation sorting, with the abstract work of the sort: the
    number of character steps its comparisons take.  A comparison of two
    rotations that first differ at offset [k] counts [k + 1]; one between
    two equal rotations (a periodic block) counts the block length.  The
    count is summed over every comparison [Array.sort] makes, so it is
    input-dependent: O(n log n) comparisons on typical text, each as long
    as the shared prefix of the two rotations.  The empty block counts 0. *)

val transform : string -> transformed
(** [fst (transform_with_work s)]. *)

val inverse : transformed -> string
(** Exact inverse of {!transform}. *)

val move_to_front : string -> int list
(** MTF coding over the byte alphabet. *)

val move_to_front_inverse : int list -> string

val run_length : int list -> (int * int) list
(** RLE over MTF output: (symbol, run length) pairs. *)

val run_length_inverse : (int * int) list -> int list
