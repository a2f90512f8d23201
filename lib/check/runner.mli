(** Property driver: run a QCheck2 generator against a predicate, shrink
    any failure to a minimal counterexample, and name the seed that
    replays it.

    Determinism contract: a property with seed [s] draws every case from
    one [Random.State.make [| s |]], so [CHECK_SEED=s] alone replays the
    exact failing input and its whole shrink sequence on any machine.

    Environment knobs:
    - [CHECK_COUNT] — cases per property when the caller does not pass
      [?count] (default 100; the [@prop] dune alias sets 1000);
    - [CHECK_SEED] — overrides the per-property default seed (an FNV-1a
      hash of the property name), letting CI explore fresh inputs while
      still printing the seed needed to replay a failure. *)

val seed_of_name : string -> int

val run_prop_exn :
  ?count:int ->
  ?print:('a -> string) ->
  name:string ->
  'a QCheck2.Gen.t ->
  ('a -> bool) ->
  unit
(** Raises [Failure] with a report naming the property, the error, the
    shrunk counterexample and [replay with CHECK_SEED=<n>]. *)
