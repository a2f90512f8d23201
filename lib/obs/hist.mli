(** Fixed-bucket log2 latency histograms.

    Sixty-three power-of-two buckets: bucket 0 counts samples [<= 0],
    bucket [k >= 1] counts samples in [[2^(k-1), 2^k)].  Adding a
    sample touches one array cell and four scalar fields — no
    allocation — so a histogram can sit on a runtime hot path.
    Alongside the buckets the exact count, sum, min and max are kept,
    so means are exact and only quantiles are bucket-quantized. *)

type t

val buckets : int
(** Number of buckets (63). *)

val create : unit -> t

val add : t -> int -> unit
(** Record one sample.  Allocation-free. *)

val count : t -> int

val sum : t -> int

val mean : t -> float
(** [0.] when empty. *)

val min_value : t -> int
(** [0] when empty. *)

val max_value : t -> int
(** [0] when empty. *)

val quantile : t -> float -> int
(** [quantile t q] (with [0. <= q <= 1.]) is an upper bound on the
    [q]-quantile: the largest value held by the first bucket whose
    cumulative count reaches [q * count], clamped to [max_value].
    [0] when empty. *)

val merge : t -> t -> t
(** A fresh histogram holding both operands' samples. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** One line: count, mean, p50/p95 upper bounds and max. *)
