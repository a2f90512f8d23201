(** Small statistics toolkit used by reports and experiments. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list; requires positive entries. *)

val variance : float list -> float
(** Population variance. *)

val minimum : float list -> float
(** Raises [Invalid_argument] on the empty list. *)

val maximum : float list -> float
(** Raises [Invalid_argument] on the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] for p in [0,100], nearest-rank on the sorted list.
    Raises [Invalid_argument] on the empty list. *)

type histogram
(** Fixed-width bucket histogram over floats. *)

val histogram : bucket_width:float -> float list -> histogram

val buckets : histogram -> (float * int) list
(** Bucket lower bound and count, ascending, empty buckets omitted. *)

val total : histogram -> int
