(** Allocation-free set of integers.

    Open addressing with linear probing over one flat [int array]; a
    removal shifts the following entries back instead of leaving a
    tombstone, so lookups stay short however many keys come and go.
    Only growth allocates, and the capacity is kept across [clear], so a
    set reused for many runs stops allocating once it has seen the
    largest. *)

type t

val create : unit -> t

val add : t -> int -> bool
(** [add t k] inserts [k]; [true] when [k] was absent.  [min_int] is not
    a valid key. *)

val mem : t -> int -> bool

val remove : t -> int -> unit
(** No-op when [k] is absent. *)

val cardinal : t -> int

val clear : t -> unit
(** Empty the set.  Free on an already empty set. *)
