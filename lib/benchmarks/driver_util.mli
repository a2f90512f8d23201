(** Shared helpers for the instrumented benchmark drivers. *)

val rng_value : int -> int
(** A deterministic "next seed" mixer for modelling RNG internal state. *)

val loc_family : Profiling.Profile.t -> (int -> string) -> int -> int
(** [loc_family p name] is [fun i -> Profiling.Profile.loc p (name i)] for a
    family of locations named by index ([net_0], [net_1], ...), except
    that each index is formatted and interned once, on first use, and
    later uses read the id from an array (for indices below 65536; others
    are interned at every use).  Ids are assigned in the same order as
    calling [Profile.loc] at every use. *)
